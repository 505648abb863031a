def __kernel(sim):
    now = 0
    memory = sim.memory
    mem_stats = sim.memory.stats
    external = sim.memory.external
    fpu = sim.memory.fpu
    bus_width = sim.memory.input_bus_width
    engine = sim.engine
    engine_stats = sim.engine.stats
    frontend = sim.frontend
    backend = sim.backend
    clock = sim.clock
    laq_items = sim.engine.laq._items
    ldq_items = sim.engine.ldq._items
    saq_items = sim.engine.saq._items
    sdq_items = sim.engine.sdq._items
    ldq_push = sim.engine.ldq.push
    backend_stalls = sim.backend.stalls
    backend_state = sim.backend.state
    backend_env = sim.backend._env
    effects_memo = {}
    frontend_note_branch = sim.frontend.note_branch
    frontend_branch_resolved = sim.frontend.branch_resolved
    frontend_redirect = sim.frontend.redirect
    frontend_halt = sim.frontend.halt
    frontend_notify = sim.frontend.notify_accepted
    engine_notify = sim.engine.notify_accepted
    external_accept = sim.memory.external.accept
    fpu_can_accept = sim.memory.fpu.can_accept
    fpu_accept = sim.memory.fpu.accept
    fpu_deliver = sim.memory.fpu.deliver
    replay_on_backedge = sim.replay_controller.on_backedge
    replay_check_runaway = sim.replay_controller.check_runaway
    fe_stats = sim.frontend.stats
    icache_stats = sim.frontend.cache.stats
    icache_unit = sim.frontend.cache
    cache_probe = sim.frontend.cache.probe
    pipe_iq = sim.frontend._iq
    pipe_clock = sim.frontend._clock
    pd_table = sim.frontend.predecode._table
    probe_memo = {}
    frontend_promote_starving = sim.frontend._promote_if_starving
    frontend_predecode_at = sim.frontend.predecode.at
    frontend_start_fill = sim.frontend._start_fill
    dispatch_get = handler_for
    last_ticks = clock.ticks
    last_progress_at = 0
    while True:
        ticks_before = clock.ticks
        conflicts_before = mem_stats.acceptance_conflicts
        # memory.begin_cycle(now)
        external._accepted_this_cycle = False
        m_flight = external.in_flight
        if m_flight:
            external.busy_cycles += 1
        m_ops = fpu._ops_pending
        while m_ops and m_ops[0] <= now:
            fpu._results_ready.append(m_ops.popleft())
            clock.ticks += 1
        if m_flight or fpu._result_loads:
            m_best = None
            for request in m_flight:
                if request.kind is not K_STORE:
                    ready = request.ready_at
                    if ready is not None and ready <= now and request.delivered_bytes < request.size:
                        m_k = (0 if request.kind is K_LOAD or request.demand else 2, ready, request.seq)
                        if m_best is None or m_k < m_key:
                            m_best = request
                            m_key = m_k
            m_loads = fpu._result_loads
            if m_loads and fpu._results_ready and (m_best is None or (1, m_loads[0].accepted_at, m_loads[0].seq) < m_key):
                request = m_loads[0]
                m_bytes = request.size
                fpu_deliver(now)
                mem_stats.input_bus_busy_cycles += 1
                mem_stats.input_bus_bytes += m_bytes
                clock.ticks += 1
            elif m_best is not None:
                m_offset = m_best.delivered_bytes
                m_bytes = m_best.size - m_offset
                if m_bytes > bus_width:
                    m_bytes = bus_width
                m_best.delivered_bytes = m_offset + m_bytes
                if m_best.on_chunk is not None:
                    m_best.on_chunk(m_offset, m_bytes, now)
                mem_stats.input_bus_busy_cycles += 1
                mem_stats.input_bus_bytes += m_bytes
                clock.ticks += 1
            for request in external.in_flight:
                if (request.ready_at is not None and request.ready_at <= now) if request.kind is K_STORE else request.delivered_bytes == request.size:
                    m_live = []
                    for request in external.in_flight:
                        if (request.ready_at is not None and request.ready_at <= now) if request.kind is K_STORE else request.delivered_bytes == request.size:
                            request.completed = True
                            clock.ticks += 1
                            if request.on_complete is not None:
                                request.on_complete(now)
                        else:
                            m_live.append(request)
                    external.in_flight = m_live
                    break
        # engine.update(now)
        ifl = engine._in_flight_loads
        while ifl and ifl[0].arrived and len(ldq_items) < 8:
            ldq_push(ifl.popleft().value)
        if len(ifl) > engine_stats.ldq_max_wait_entries:
            engine_stats.ldq_max_wait_entries = len(ifl)
        # frontend.update(now)
        f_req = frontend._request
        if f_req is not None and not frontend._request_discarded and not f_req.demand and not pipe_iq:
            frontend_promote_starving()
        if not pipe_iq and frontend._iqb_loaded and frontend._iqb_read_pc < frontend._iqb_base + 16:
            t_moved = 0
            t_line_end = frontend._iqb_base + 16
            t_span = frontend._span_pc
            t_ok = True
            if t_span is not None:
                if frontend._iqb_base != (t_span + 2) - ((t_span + 2) % 16):
                    t_ok = False
                else:
                    t_entry = pd_table.get(t_span, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_span)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None or frontend._iqb_valid_end < t_span + t_entry[1]:
                        t_ok = False
                    else:
                        t_size = t_entry[1]
                        pipe_iq.append((t_span, t_entry[0], t_size))
                        pipe_clock.ticks += 1
                        t_moved = t_size
                        frontend._iq_next_pc = t_span + t_size
                        frontend._iqb_read_pc = t_span + t_size
                        frontend._span_pc = None
            elif frontend._iqb_read_pc != frontend._iq_next_pc:
                t_ok = False
            if t_ok:
                while True:
                    t_pc = frontend._iq_next_pc
                    if t_pc >= t_line_end or t_pc >= frontend._iqb_valid_end:
                        break
                    t_entry = pd_table.get(t_pc, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_pc)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None:
                        break
                    t_size = t_entry[1]
                    if t_pc + t_size > t_line_end:
                        if t_moved == 0 and frontend._iqb_valid_end >= t_line_end:
                            frontend._span_pc = t_pc
                            frontend._iqb_read_pc = t_line_end
                            pipe_clock.ticks += 1
                        break
                    if t_pc + t_size > frontend._iqb_valid_end:
                        break
                    if t_moved + t_size > 16:
                        break
                    pipe_iq.append((t_pc, t_entry[0], t_size))
                    pipe_clock.ticks += 1
                    t_moved += t_size
                    frontend._iq_next_pc = t_pc + t_size
                    frontend._iqb_read_pc = t_pc + t_size
                frontend._iq_bytes = t_moved
        if not frontend._halted:
            if frontend._request is None or frontend._request_discarded:
                branch = frontend._branch
                if branch is not None and branch.resolved and branch.taken and frontend._iq_next_pc >= branch.delay_end_pc:
                    t_target = branch.target
                    if not (frontend._iqb_loaded and frontend._iqb_base == t_target - (t_target % 16) and frontend._iqb_read_pc <= t_target):
                        t_start = t_target
                        t_line = t_start - (t_start % 16)
                        if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                            probe_memo[t_line] = icache_unit._epoch
                            icache_stats.hits += 1
                            pipe_clock.ticks += 1
                            frontend._iqb_loaded = True
                            frontend._iqb_base = t_line
                            frontend._iqb_read_pc = t_start
                            frontend._iqb_valid_end = t_line + 16
                        else:
                            frontend_start_fill(t_start, now)
                elif not frontend._iqb_loaded or frontend._iqb_read_pc >= frontend._iqb_base + 16:
                    t_span = frontend._span_pc
                    if t_span is not None:
                        t_next = t_span - (t_span % 16) + 16
                        if frontend._iqb_base != t_next or not frontend._iqb_loaded:
                            t_start = t_next
                            t_line = t_start - (t_start % 16)
                            if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                                probe_memo[t_line] = icache_unit._epoch
                                icache_stats.hits += 1
                                pipe_clock.ticks += 1
                                frontend._iqb_loaded = True
                                frontend._iqb_base = t_line
                                frontend._iqb_read_pc = t_start
                                frontend._iqb_valid_end = t_line + 16
                            else:
                                frontend_start_fill(t_start, now)
                    else:
                        t_start = frontend._iq_next_pc
                        t_line = t_start - (t_start % 16)
                        if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                            probe_memo[t_line] = icache_unit._epoch
                            icache_stats.hits += 1
                            pipe_clock.ticks += 1
                            frontend._iqb_loaded = True
                            frontend._iqb_base = t_line
                            frontend._iqb_read_pc = t_start
                            frontend._iqb_valid_end = t_line + 16
                        else:
                            frontend_start_fill(t_start, now)
        if not pipe_iq and frontend._iqb_loaded and frontend._iqb_read_pc < frontend._iqb_base + 16:
            t_moved = 0
            t_line_end = frontend._iqb_base + 16
            t_span = frontend._span_pc
            t_ok = True
            if t_span is not None:
                if frontend._iqb_base != (t_span + 2) - ((t_span + 2) % 16):
                    t_ok = False
                else:
                    t_entry = pd_table.get(t_span, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_span)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None or frontend._iqb_valid_end < t_span + t_entry[1]:
                        t_ok = False
                    else:
                        t_size = t_entry[1]
                        pipe_iq.append((t_span, t_entry[0], t_size))
                        pipe_clock.ticks += 1
                        t_moved = t_size
                        frontend._iq_next_pc = t_span + t_size
                        frontend._iqb_read_pc = t_span + t_size
                        frontend._span_pc = None
            elif frontend._iqb_read_pc != frontend._iq_next_pc:
                t_ok = False
            if t_ok:
                while True:
                    t_pc = frontend._iq_next_pc
                    if t_pc >= t_line_end or t_pc >= frontend._iqb_valid_end:
                        break
                    t_entry = pd_table.get(t_pc, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_pc)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None:
                        break
                    t_size = t_entry[1]
                    if t_pc + t_size > t_line_end:
                        if t_moved == 0 and frontend._iqb_valid_end >= t_line_end:
                            frontend._span_pc = t_pc
                            frontend._iqb_read_pc = t_line_end
                            pipe_clock.ticks += 1
                        break
                    if t_pc + t_size > frontend._iqb_valid_end:
                        break
                    if t_moved + t_size > 16:
                        break
                    pipe_iq.append((t_pc, t_entry[0], t_size))
                    pipe_clock.ticks += 1
                    t_moved += t_size
                    frontend._iq_next_pc = t_pc + t_size
                    frontend._iqb_read_pc = t_pc + t_size
                frontend._iq_bytes = t_moved
        # backend.step(now)
        if not backend.halted:
            ok = True
            pending = backend._pending
            if pending is not None:
                if not pending.notified and now >= pending.resolve_at:
                    pending.notified = True
                    clock.ticks += 1
                    frontend_branch_resolved(pending.taken)
                    if not pending.taken:
                        backend._pending = None
                        pending = None
                if pending is not None and pending.slots_remaining == 0:
                    if now < pending.resolve_at:
                        backend_stalls['branch_unresolved'] += 1
                        backend.last_stall_reason = 'branch_unresolved'
                        ok = False
                    else:
                        clock.ticks += 1
                        target = pending.target
                        frontend_redirect(target, now)
                        backend._pending = None
                        pending = None
                        last_pc = backend.last_pc
                        if last_pc is not None and target < last_pc:
                            backend.replay_backedge = target
            if ok:
                fetched = pipe_iq[0] if pipe_iq else None
                if fetched is None:
                    backend_stalls['frontend_empty'] += 1
                    backend.last_stall_reason = 'frontend_empty'
                else:
                    pc, instruction, size = fetched
                    entry = effects_memo.get(id(instruction))
                    if entry is None:
                        _fx = queue_effects(instruction)
                        entry = (instruction, _fx.pops_ldq, _fx.pushes_laq, _fx.pushes_saq, _fx.pushes_sdq, instruction.op.is_branch, dispatch_get(instruction))
                        effects_memo[id(instruction)] = entry
                    if entry[5] and pending is not None:
                        backend_stalls['branch_overlap'] += 1
                        backend.last_stall_reason = 'branch_overlap'
                    elif entry[1] and not ldq_items:
                        backend_stalls['ldq_empty'] += 1
                        backend.last_stall_reason = 'ldq_empty'
                    elif entry[2] and len(laq_items) >= 8:
                        backend_stalls['laq_full'] += 1
                        backend.last_stall_reason = 'laq_full'
                    elif entry[3] and len(saq_items) >= 8:
                        backend_stalls['saq_full'] += 1
                        backend.last_stall_reason = 'saq_full'
                    elif entry[4] and len(sdq_items) >= 8:
                        backend_stalls['sdq_full'] += 1
                        backend.last_stall_reason = 'sdq_full'
                    else:
                        outcome = entry[6](backend_state, backend_env)
                        if backend.issue_log is not None:
                            backend.issue_log.append(("i", pc, instruction, outcome))
                        clock.ticks += 1
                        pipe_iq.popleft()
                        frontend._iq_bytes -= size
                        fe_stats.instructions_supplied += 1
                        backend.instructions += 1
                        backend.last_pc = pc
                        if outcome.halted:
                            backend.halted = True
                        elif outcome.is_branch:
                            backend.branches += 1
                            if outcome.branch_taken:
                                backend.branches_taken += 1
                            backend._pending = _PendingBranch(target=outcome.branch_target, taken=outcome.branch_taken, resolve_at=now + 2, slots_remaining=outcome.branch_delay)
                            frontend_note_branch(pc, pc + size, outcome.branch_delay, outcome.branch_target)
                        elif pending is not None:
                            pending.slots_remaining -= 1
        if backend.halted:
            frontend_halt()
        # frontend.post_issue(now)
        if not pipe_iq and frontend._iqb_loaded and frontend._iqb_read_pc < frontend._iqb_base + 16:
            t_moved = 0
            t_line_end = frontend._iqb_base + 16
            t_span = frontend._span_pc
            t_ok = True
            if t_span is not None:
                if frontend._iqb_base != (t_span + 2) - ((t_span + 2) % 16):
                    t_ok = False
                else:
                    t_entry = pd_table.get(t_span, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_span)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None or frontend._iqb_valid_end < t_span + t_entry[1]:
                        t_ok = False
                    else:
                        t_size = t_entry[1]
                        pipe_iq.append((t_span, t_entry[0], t_size))
                        pipe_clock.ticks += 1
                        t_moved = t_size
                        frontend._iq_next_pc = t_span + t_size
                        frontend._iqb_read_pc = t_span + t_size
                        frontend._span_pc = None
            elif frontend._iqb_read_pc != frontend._iq_next_pc:
                t_ok = False
            if t_ok:
                while True:
                    t_pc = frontend._iq_next_pc
                    if t_pc >= t_line_end or t_pc >= frontend._iqb_valid_end:
                        break
                    t_entry = pd_table.get(t_pc, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_pc)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None:
                        break
                    t_size = t_entry[1]
                    if t_pc + t_size > t_line_end:
                        if t_moved == 0 and frontend._iqb_valid_end >= t_line_end:
                            frontend._span_pc = t_pc
                            frontend._iqb_read_pc = t_line_end
                            pipe_clock.ticks += 1
                        break
                    if t_pc + t_size > frontend._iqb_valid_end:
                        break
                    if t_moved + t_size > 16:
                        break
                    pipe_iq.append((t_pc, t_entry[0], t_size))
                    pipe_clock.ticks += 1
                    t_moved += t_size
                    frontend._iq_next_pc = t_pc + t_size
                    frontend._iqb_read_pc = t_pc + t_size
                frontend._iq_bytes = t_moved
        if not frontend._halted:
            if frontend._request is None or frontend._request_discarded:
                branch = frontend._branch
                if branch is not None and branch.resolved and branch.taken and frontend._iq_next_pc >= branch.delay_end_pc:
                    t_target = branch.target
                    if not (frontend._iqb_loaded and frontend._iqb_base == t_target - (t_target % 16) and frontend._iqb_read_pc <= t_target):
                        t_start = t_target
                        t_line = t_start - (t_start % 16)
                        if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                            probe_memo[t_line] = icache_unit._epoch
                            icache_stats.hits += 1
                            pipe_clock.ticks += 1
                            frontend._iqb_loaded = True
                            frontend._iqb_base = t_line
                            frontend._iqb_read_pc = t_start
                            frontend._iqb_valid_end = t_line + 16
                        else:
                            frontend_start_fill(t_start, now)
                elif not frontend._iqb_loaded or frontend._iqb_read_pc >= frontend._iqb_base + 16:
                    t_span = frontend._span_pc
                    if t_span is not None:
                        t_next = t_span - (t_span % 16) + 16
                        if frontend._iqb_base != t_next or not frontend._iqb_loaded:
                            t_start = t_next
                            t_line = t_start - (t_start % 16)
                            if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                                probe_memo[t_line] = icache_unit._epoch
                                icache_stats.hits += 1
                                pipe_clock.ticks += 1
                                frontend._iqb_loaded = True
                                frontend._iqb_base = t_line
                                frontend._iqb_read_pc = t_start
                                frontend._iqb_valid_end = t_line + 16
                            else:
                                frontend_start_fill(t_start, now)
                    else:
                        t_start = frontend._iq_next_pc
                        t_line = t_start - (t_start % 16)
                        if probe_memo.get(t_line) == icache_unit._epoch or cache_probe(t_line, 16):
                            probe_memo[t_line] = icache_unit._epoch
                            icache_stats.hits += 1
                            pipe_clock.ticks += 1
                            frontend._iqb_loaded = True
                            frontend._iqb_base = t_line
                            frontend._iqb_read_pc = t_start
                            frontend._iqb_valid_end = t_line + 16
                        else:
                            frontend_start_fill(t_start, now)
        if not pipe_iq and frontend._iqb_loaded and frontend._iqb_read_pc < frontend._iqb_base + 16:
            t_moved = 0
            t_line_end = frontend._iqb_base + 16
            t_span = frontend._span_pc
            t_ok = True
            if t_span is not None:
                if frontend._iqb_base != (t_span + 2) - ((t_span + 2) % 16):
                    t_ok = False
                else:
                    t_entry = pd_table.get(t_span, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_span)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None or frontend._iqb_valid_end < t_span + t_entry[1]:
                        t_ok = False
                    else:
                        t_size = t_entry[1]
                        pipe_iq.append((t_span, t_entry[0], t_size))
                        pipe_clock.ticks += 1
                        t_moved = t_size
                        frontend._iq_next_pc = t_span + t_size
                        frontend._iqb_read_pc = t_span + t_size
                        frontend._span_pc = None
            elif frontend._iqb_read_pc != frontend._iq_next_pc:
                t_ok = False
            if t_ok:
                while True:
                    t_pc = frontend._iq_next_pc
                    if t_pc >= t_line_end or t_pc >= frontend._iqb_valid_end:
                        break
                    t_entry = pd_table.get(t_pc, False)
                    if t_entry is False:
                        try:
                            t_entry = frontend_predecode_at(t_pc)
                        except DecodeError:
                            t_entry = None
                    if t_entry is None:
                        break
                    t_size = t_entry[1]
                    if t_pc + t_size > t_line_end:
                        if t_moved == 0 and frontend._iqb_valid_end >= t_line_end:
                            frontend._span_pc = t_pc
                            frontend._iqb_read_pc = t_line_end
                            pipe_clock.ticks += 1
                        break
                    if t_pc + t_size > frontend._iqb_valid_end:
                        break
                    if t_moved + t_size > 16:
                        break
                    pipe_iq.append((t_pc, t_entry[0], t_size))
                    pipe_clock.ticks += 1
                    t_moved += t_size
                    frontend._iq_next_pc = t_pc + t_size
                    frontend._iqb_read_pc = t_pc + t_size
                frontend._iq_bytes = t_moved
        # memory.end_cycle(now)
        if frontend._request is not None and not frontend._request_accepted:
            if frontend._halted:
                frontend._request = None
                f_reqs = ()
            else:
                f_reqs = (frontend._request,)
        else:
            f_reqs = ()
        e_load = laq_items[0] if laq_items and len(engine._in_flight_loads) + len(ldq_items) < 8 else None
        if saq_items and sdq_items and (e_load is None or e_load.seq > saq_items[0].seq):
            e_head = saq_items[0]
            e_reqs = (MemoryRequest(kind=K_STORE, address=e_head.address, size=4, seq=e_head.seq, demand=True, store_value=sdq_items[0].value),)
            engine._offered_is_store = True
        elif e_load is not None:
            e_reqs = (MemoryRequest(kind=K_LOAD, address=e_load.address, size=4, seq=e_load.seq, demand=True),)
            engine._offered_is_store = False
        else:
            e_reqs = ()
        if f_reqs or e_reqs:
            n = len(f_reqs) + len(e_reqs)
            if n == 1:
                if f_reqs:
                    request = f_reqs[0]
                    notify = frontend_notify
                else:
                    request = e_reqs[0]
                    notify = engine_notify
                fpu_hit = _is_fpu(request.address)
                accepted = False
                if fpu_hit:
                    if fpu_can_accept(request, now):
                        fpu_accept(request, now)
                        accepted = True
                elif not (external._accepted_this_cycle or external.in_flight):
                    external_accept(request, now)
                    accepted = True
                if accepted:
                    notify(request, now)
                    mem_stats.output_bus_busy_cycles += 1
                    kind = request.kind
                    if fpu_hit:
                        if kind is K_STORE:
                            mem_stats.fpu_stores_accepted += 1
                        else:
                            mem_stats.fpu_loads_accepted += 1
                    else:
                        if kind is K_LOAD:
                            mem_stats.loads_accepted += 1
                        elif kind is K_STORE:
                            mem_stats.stores_accepted += 1
                        elif request.demand:
                            mem_stats.ifetch_demand_accepted += 1
                        else:
                            mem_stats.ifetch_prefetch_accepted += 1
            else:
                mem_stats.acceptance_conflicts += 1
                memory.last_conflict_candidates = n
                cands = [(request, frontend_notify) for request in f_reqs]
                for request in e_reqs:
                    cands.append((request, engine_notify))
                cands.sort(key=lambda item: _acc_order(item[0], _PRIORITY))
                for request, notify in cands:
                    fpu_hit = _is_fpu(request.address)
                    if fpu_hit:
                        if not fpu_can_accept(request, now):
                            continue
                        fpu_accept(request, now)
                    elif external._accepted_this_cycle or external.in_flight:
                        continue
                    else:
                        external_accept(request, now)
                    notify(request, now)
                    mem_stats.output_bus_busy_cycles += 1
                    kind = request.kind
                    if fpu_hit:
                        if kind is K_STORE:
                            mem_stats.fpu_stores_accepted += 1
                        else:
                            mem_stats.fpu_loads_accepted += 1
                    else:
                        if kind is K_LOAD:
                            mem_stats.loads_accepted += 1
                        elif kind is K_STORE:
                            mem_stats.stores_accepted += 1
                        elif request.demand:
                            mem_stats.ifetch_demand_accepted += 1
                        else:
                            mem_stats.ifetch_prefetch_accepted += 1
                    break
        now += 1
        if backend.halted and not laq_items and not saq_items and not sdq_items and not engine._in_flight_loads and not external.in_flight and not fpu._ops_pending and not fpu._results_ready and not fpu._result_loads:
            break
        if backend.replay_backedge is not None:
            target = backend.replay_backedge
            backend.replay_backedge = None
            jumped = replay_on_backedge(target, now)
            if jumped != now:
                now = jumped
                last_ticks = clock.ticks
                last_progress_at = now & -256
        if not now & 255:
            ticks = clock.ticks
            if ticks != last_ticks:
                last_ticks = ticks
                last_progress_at = now
            elif now - last_progress_at > 20000:
                raise sim._deadlock(now, last_progress_at, False)
            replay_check_runaway()
        if now >= 500000000:
            raise sim._timeout(now, False)
        if clock.ticks == ticks_before:
            wake = IDLE
            for request in external.in_flight:
                ready = request.ready_at
                if ready is not None and ready < wake:
                    wake = ready
            _ops = fpu._ops_pending
            if _ops and _ops[0] < wake:
                wake = _ops[0]
            bpending = backend._pending
            if bpending is not None and not bpending.notified and bpending.resolve_at < wake:
                wake = bpending.resolve_at
            ticks = clock.ticks
            if ticks != last_ticks:
                first_snapshot = (now | 255) + 1
                fire_base = first_snapshot
            else:
                first_snapshot = None
                fire_base = last_progress_at
            fire = -(-(fire_base + 20001) // 256) * 256
            if fire <= wake and fire <= 500000000:
                target = fire
                fate = 1
            elif 500000000 <= wake:
                target = 500000000
                fate = 2
            else:
                target = wake
                fate = 0
            if target > now:
                span = target - now
                stall_reason = backend.last_stall_reason if not backend.halted else None
                if stall_reason is not None:
                    backend_stalls[stall_reason] += span
                conflict = mem_stats.acceptance_conflicts > conflicts_before
                if conflict:
                    mem_stats.acceptance_conflicts += span
                if external.in_flight:
                    external.busy_cycles += span
                if first_snapshot is not None and first_snapshot <= target:
                    last_ticks = ticks
                    last_progress_at = first_snapshot
                now = target
                if fate == 1:
                    raise sim._deadlock(now, last_progress_at, True)
                if fate == 2:
                    raise sim._timeout(now, True)
    return now
