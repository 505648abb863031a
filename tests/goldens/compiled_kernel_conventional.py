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
    ldq_pop = sim.engine.ldq.pop
    engine_push_laq = sim.engine.push_laq
    engine_push_saq = sim.engine.push_saq
    engine_push_sdq = sim.engine.push_sdq
    stream = sim.backend.stream
    stream_loads = sim.backend.stream.loads
    stream_stores = sim.backend.stream.stores
    stream_branches = sim.backend.stream.branches
    horizon = 0
    effects_memo = {}
    frontend_next_instruction = sim.frontend.next_instruction
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
    fe_memo = {}
    res_memo = {}
    frontend_maybe_promote = sim.frontend._maybe_promote
    frontend_maybe_request = sim.frontend._maybe_request
    entry_for = issue_entry
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
            ldq_push(ifl.popleft())
        if len(ifl) > engine_stats.ldq_max_wait_entries:
            engine_stats.ldq_max_wait_entries = len(ifl)
        # frontend.update(now)
        f_req = frontend._request
        if f_req is None:
            if not frontend._halted:
                f_pc = frontend._pc
                if fe_memo.get(f_pc) != icache_unit._epoch:
                    frontend_maybe_request(now)
                    if frontend._request is None:
                        fe_memo[f_pc] = icache_unit._epoch
        elif not f_req.demand:
            frontend_maybe_promote()
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
                f_pc = frontend._pc
                entry = res_memo.get(f_pc)
                if entry is not None and entry[0] == icache_unit._epoch:
                    fetched = entry[1]
                else:
                    fetched = frontend_next_instruction()
                    res_memo[f_pc] = (icache_unit._epoch, fetched)
                if fetched is None:
                    backend_stalls['frontend_empty'] += 1
                    backend.last_stall_reason = 'frontend_empty'
                else:
                    pc, instruction, size = fetched
                    entry = effects_memo.get(id(instruction))
                    if entry is None:
                        entry = (instruction,) + entry_for(instruction)
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
                        index = backend.instructions
                        if index >= horizon:
                            horizon = stream.reach(index)
                        if entry[1]:
                            ldq_pop()
                        if entry[2]:
                            s_at = backend.next_load
                            engine_push_laq(stream_loads[s_at])
                            backend.next_load = s_at + 1
                        elif entry[3]:
                            s_at = backend.next_store
                            engine_push_saq(stream_stores[s_at])
                            backend.next_store = s_at + 1
                        elif entry[4]:
                            engine_push_sdq()
                        clock.ticks += 1
                        icache_stats.hits += 1
                        frontend._pc = pc + size
                        fe_stats.instructions_supplied += 1
                        backend.instructions = index + 1
                        backend.last_pc = pc
                        if entry[6]:
                            backend.halted = True
                        elif entry[5]:
                            s_at = backend.next_branch
                            if s_at >= len(stream_branches) or stream_branches[s_at] != pc:
                                raise stream.desync(pc, s_at)
                            backend.next_branch = s_at + 3
                            taken = stream_branches[s_at + 1] == 1
                            target = stream_branches[s_at + 2]
                            delay = instruction.delay
                            backend.branches += 1
                            if taken:
                                backend.branches_taken += 1
                            backend._pending = _PendingBranch(target=target, taken=taken, resolve_at=now + 2, slots_remaining=delay)
                            frontend_note_branch(pc, pc + size, delay, target)
                        elif pending is not None:
                            pending.slots_remaining -= 1
        if backend.halted:
            frontend_halt()
        # frontend.post_issue(now)
        f_req = frontend._request
        if f_req is None:
            if not frontend._halted:
                f_pc = frontend._pc
                if fe_memo.get(f_pc) != icache_unit._epoch:
                    frontend_maybe_request(now)
                    if frontend._request is None:
                        fe_memo[f_pc] = icache_unit._epoch
        elif not f_req.demand:
            frontend_maybe_promote()
        # memory.end_cycle(now)
        if frontend._request is not None and not frontend._request_accepted:
            if frontend._halted:
                frontend._request = None
                f_req = None
            else:
                f_req = frontend._request
        else:
            f_req = None
        e_head = laq_items[0] if laq_items and len(engine._in_flight_loads) + len(ldq_items) < 8 else None
        if saq_items and sdq_items and (e_head is None or e_head.seq > saq_items[0].seq):
            e_head = saq_items[0]
            e_store = True
            engine._offered_is_store = True
        elif e_head is not None:
            e_store = False
            engine._offered_is_store = False
        if f_req is not None:
            if e_head is not None:
                mem_stats.acceptance_conflicts += 1
                if 61440 <= e_head.address < 61504:
                    request = MemoryRequest(kind=K_STORE if e_store else K_LOAD, address=e_head.address, size=4, seq=e_head.seq, demand=True)
                    if fpu_can_accept(request, now):
                        fpu_accept(request, now)
                        engine_notify(request, now)
                        mem_stats.output_bus_busy_cycles += 1
                        if e_store:
                            mem_stats.fpu_stores_accepted += 1
                        else:
                            mem_stats.fpu_loads_accepted += 1
                    else:
                        if not (61440 <= f_req.address < 61504 or external._accepted_this_cycle or external.in_flight):
                            external_accept(f_req, now)
                            frontend_notify(f_req, now)
                            mem_stats.output_bus_busy_cycles += 1
                            if f_req.demand:
                                mem_stats.ifetch_demand_accepted += 1
                            else:
                                mem_stats.ifetch_prefetch_accepted += 1
                elif not (external._accepted_this_cycle or external.in_flight):
                    request = MemoryRequest(kind=K_STORE if e_store else K_LOAD, address=e_head.address, size=4, seq=e_head.seq, demand=True)
                    external_accept(request, now)
                    engine_notify(request, now)
                    mem_stats.output_bus_busy_cycles += 1
                    if e_store:
                        mem_stats.stores_accepted += 1
                    else:
                        mem_stats.loads_accepted += 1
            else:
                if not (61440 <= f_req.address < 61504 or external._accepted_this_cycle or external.in_flight):
                    external_accept(f_req, now)
                    frontend_notify(f_req, now)
                    mem_stats.output_bus_busy_cycles += 1
                    if f_req.demand:
                        mem_stats.ifetch_demand_accepted += 1
                    else:
                        mem_stats.ifetch_prefetch_accepted += 1
        elif e_head is not None:
            if 61440 <= e_head.address < 61504:
                request = MemoryRequest(kind=K_STORE if e_store else K_LOAD, address=e_head.address, size=4, seq=e_head.seq, demand=True)
                if fpu_can_accept(request, now):
                    fpu_accept(request, now)
                    engine_notify(request, now)
                    mem_stats.output_bus_busy_cycles += 1
                    if e_store:
                        mem_stats.fpu_stores_accepted += 1
                    else:
                        mem_stats.fpu_loads_accepted += 1
            elif not (external._accepted_this_cycle or external.in_flight):
                request = MemoryRequest(kind=K_STORE if e_store else K_LOAD, address=e_head.address, size=4, seq=e_head.seq, demand=True)
                external_accept(request, now)
                engine_notify(request, now)
                mem_stats.output_bus_busy_cycles += 1
                if e_store:
                    mem_stats.stores_accepted += 1
                else:
                    mem_stats.loads_accepted += 1
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
