def __kernel(sim):
    now = 0
    memory = sim.memory
    mem_stats = sim.memory.stats
    external = sim.memory.external
    fpu = sim.memory.fpu
    bus_width = sim.memory.input_bus_width
    mem_access = sim.memory.external.access_time
    fpu_latency = sim.memory.fpu.trigger_latencies()
    engine = sim.engine
    engine_stats = sim.engine.stats
    in_flight_loads = sim.engine._in_flight_loads
    frontend = sim.frontend
    backend = sim.backend
    clock = sim.clock
    seq = sim.seq
    laq = sim.engine.laq
    ldq = sim.engine.ldq
    saq = sim.engine.saq
    sdq = sim.engine.sdq
    laq_items = sim.engine.laq._items
    ldq_items = sim.engine.ldq._items
    saq_items = sim.engine.saq._items
    sdq_items = sim.engine.sdq._items
    backend_stalls = sim.backend.stalls
    stream = sim.backend.stream
    stream_loads = sim.backend.stream.loads
    stream_stores = sim.backend.stream.stores
    stream_branches = sim.backend.stream.branches
    horizon = 0
    effects_memo = {}
    frontend_note_branch = sim.frontend.note_branch
    frontend_branch_resolved = sim.frontend.branch_resolved
    frontend_redirect = sim.frontend.redirect
    frontend_halt = sim.frontend.halt
    frontend_fetch_chunk = sim.frontend.fetch_chunk
    frontend_fetch_complete = sim.frontend.fetch_complete
    fpu_can_accept = sim.memory.fpu.can_accept
    fpu_deliver = sim.memory.fpu.deliver
    replay_on_backedge = sim.replay_controller.on_backedge
    replay_check_runaway = sim.replay_controller.check_runaway
    fe_stats = sim.frontend.stats
    icache_stats = sim.frontend.cache.stats
    residency = sim.frontend.cache.residency
    fe_block = sim.frontend.block_size
    fe_image_len = len(sim.frontend.image)
    pd_table = sim.frontend.predecode._table
    frontend_issue_request = sim.frontend._issue_request
    frontend_predecode_at = sim.frontend.predecode.at
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
                if m_best.kind is K_IFETCH:
                    frontend_fetch_chunk(m_best, m_offset, m_bytes, now)
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
                            if request.kind is K_IFETCH:
                                frontend_fetch_complete(request, now)
                        else:
                            m_live.append(request)
                    external.in_flight = m_live
                    break
        # engine.update(now)
        while in_flight_loads and in_flight_loads[0].completed and len(ldq_items) < 8:
            ldq_items.append(in_flight_loads.popleft())
            clock.ticks += 1
            ldq.total_pushes += 1
            if len(ldq_items) > ldq.max_occupancy:
                ldq.max_occupancy = len(ldq_items)
        if len(in_flight_loads) > engine_stats.ldq_max_wait_entries:
            engine_stats.ldq_max_wait_entries = len(in_flight_loads)
        # frontend.update(now)
        f_req = frontend._request
        if f_req is None:
            if not frontend._halted:
                f_pc = frontend._pc
                f_sb = f_pc >> 2
                if residency[f_sb] and (not f_pc & 1 or residency[f_pc + 1 >> 2]):
                    f_entry = pd_table.get(f_pc) or frontend_predecode_at(f_pc)
                    f_size = f_entry[1]
                    f_last = f_pc + f_size - 1 >> 2
                    if f_last == f_sb or residency.find(0, f_sb, f_last + 1) < 0:
                        f_blk = f_pc + f_size
                        f_blk -= f_blk % fe_block
                        f_len = fe_image_len - f_blk
                        if f_len >= fe_block:
                            f_len = fe_block
                        else:
                            f_len -= f_len & 1
                        if f_len >= 2 and residency.find(0, f_blk >> 2, (f_blk + f_len - 1 >> 2) + 1) >= 0:
                            frontend_issue_request(f_blk, False, now)
                    else:
                        f_miss = f_pc + 2
                        while f_miss < f_pc + f_size and residency.find(0, f_miss >> 2, (f_miss + 1 >> 2) + 1) < 0:
                            f_miss += 2
                        f_blk = f_miss - f_miss % fe_block
                        frontend_issue_request(f_blk, True, now, f_miss)
                else:
                    f_blk = f_pc - f_pc % fe_block
                    frontend_issue_request(f_blk, True, now, f_pc)
        elif not f_req.demand:
            f_pc = frontend._pc
            if f_req.address == f_pc - f_pc % fe_block:
                f_sb = f_pc >> 2
                f_hit = residency[f_sb] and (not f_pc & 1 or residency[f_pc + 1 >> 2])
                if f_hit:
                    f_entry = pd_table.get(f_pc) or frontend_predecode_at(f_pc)
                    f_last = f_pc + f_entry[1] - 1 >> 2
                    f_hit = f_last == f_sb or residency.find(0, f_sb, f_last + 1) < 0
                if not f_hit:
                    f_req.demand = True
                    clock.ticks += 1
                    frontend._request_is_demand = True
                    fe_stats.prefetch_promotions += 1
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
                fetched = None
                f_sb = f_pc >> 2
                if residency[f_sb] and (not f_pc & 1 or residency[f_pc + 1 >> 2]):
                    f_entry = pd_table.get(f_pc) or frontend_predecode_at(f_pc)
                    f_last = f_pc + f_entry[1] - 1 >> 2
                    if f_last == f_sb or residency.find(0, f_sb, f_last + 1) < 0:
                        fetched = (f_pc, f_entry[0], f_entry[1])
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
                            ldq.total_pops += 1
                            clock.ticks += 1
                            ldq_items.popleft()
                        if entry[2]:
                            s_at = backend.next_load
                            s_address = stream_loads[s_at]
                            e_hz = 0
                            for e_entry in saq_items:
                                if e_entry.address == s_address:
                                    e_hz += 1
                            if e_hz:
                                engine_stats.ordering_hazards += e_hz
                            e_seq = seq.value
                            seq.value = e_seq + 1
                            laq_items.append(MemoryRequest(K_LOAD, s_address, 4, e_seq))
                            clock.ticks += 1
                            laq.total_pushes += 1
                            if len(laq_items) > laq.max_occupancy:
                                laq.max_occupancy = len(laq_items)
                            e_log = engine.replay_log
                            if e_log is not None:
                                e_log.append(("laq", e_hz))
                            engine_stats.loads_issued += 1
                            if 61440 <= s_address < 61504:
                                engine_stats.fpu_loads += 1
                            backend.next_load = s_at + 1
                        elif entry[3]:
                            s_at = backend.next_store
                            s_address = stream_stores[s_at]
                            e_seq = seq.value
                            seq.value = e_seq + 1
                            saq_items.append(MemoryRequest(K_STORE, s_address, 4, e_seq))
                            clock.ticks += 1
                            saq.total_pushes += 1
                            if len(saq_items) > saq.max_occupancy:
                                saq.max_occupancy = len(saq_items)
                            e_log = engine.replay_log
                            if e_log is not None:
                                e_log.append(("saq",))
                            engine_stats.stores_issued += 1
                            if 61440 <= s_address < 61504:
                                engine_stats.fpu_stores += 1
                            backend.next_store = s_at + 1
                        elif entry[4]:
                            e_seq = seq.value
                            seq.value = e_seq + 1
                            sdq_items.append(e_seq)
                            clock.ticks += 1
                            sdq.total_pushes += 1
                            if len(sdq_items) > sdq.max_occupancy:
                                sdq.max_occupancy = len(sdq_items)
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
                            backend._pending = _PendingBranch(target, taken, now + 2, delay)
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
                f_sb = f_pc >> 2
                if residency[f_sb] and (not f_pc & 1 or residency[f_pc + 1 >> 2]):
                    f_entry = pd_table.get(f_pc) or frontend_predecode_at(f_pc)
                    f_size = f_entry[1]
                    f_last = f_pc + f_size - 1 >> 2
                    if f_last == f_sb or residency.find(0, f_sb, f_last + 1) < 0:
                        f_blk = f_pc + f_size
                        f_blk -= f_blk % fe_block
                        f_len = fe_image_len - f_blk
                        if f_len >= fe_block:
                            f_len = fe_block
                        else:
                            f_len -= f_len & 1
                        if f_len >= 2 and residency.find(0, f_blk >> 2, (f_blk + f_len - 1 >> 2) + 1) >= 0:
                            frontend_issue_request(f_blk, False, now)
                    else:
                        f_miss = f_pc + 2
                        while f_miss < f_pc + f_size and residency.find(0, f_miss >> 2, (f_miss + 1 >> 2) + 1) < 0:
                            f_miss += 2
                        f_blk = f_miss - f_miss % fe_block
                        frontend_issue_request(f_blk, True, now, f_miss)
                else:
                    f_blk = f_pc - f_pc % fe_block
                    frontend_issue_request(f_blk, True, now, f_pc)
        elif not f_req.demand:
            f_pc = frontend._pc
            if f_req.address == f_pc - f_pc % fe_block:
                f_sb = f_pc >> 2
                f_hit = residency[f_sb] and (not f_pc & 1 or residency[f_pc + 1 >> 2])
                if f_hit:
                    f_entry = pd_table.get(f_pc) or frontend_predecode_at(f_pc)
                    f_last = f_pc + f_entry[1] - 1 >> 2
                    f_hit = f_last == f_sb or residency.find(0, f_sb, f_last + 1) < 0
                if not f_hit:
                    f_req.demand = True
                    clock.ticks += 1
                    frontend._request_is_demand = True
                    fe_stats.prefetch_promotions += 1
        # memory.end_cycle(now)
        if frontend._request is not None and not frontend._request_accepted:
            if frontend._halted:
                frontend._request = None
                f_req = None
            else:
                f_req = frontend._request
        else:
            f_req = None
        e_head = laq_items[0] if laq_items and len(in_flight_loads) + len(ldq_items) < 8 else None
        if saq_items and sdq_items and (e_head is None or e_head.seq > saq_items[0].seq):
            e_head = saq_items[0]
            e_store = True
        elif e_head is not None:
            e_store = False
        if e_head is not None:
            if f_req is not None:
                mem_stats.acceptance_conflicts += 1
            if 61440 <= e_head.address < 61504:
                if fpu_can_accept(e_head, now):
                    e_head.accepted_at = now
                    clock.ticks += 1
                    if e_store:
                        e_latency = fpu_latency.get(e_head.address)
                        if e_latency is not None:
                            e_start = fpu._busy_until
                            if e_start < now:
                                e_start = now
                            fpu._busy_until = e_start + e_latency
                            fpu._ops_pending.append(e_start + e_latency)
                            fpu.operations_started += 1
                        e_head.completed = True
                    else:
                        fpu._result_loads.append(e_head)
                    if e_store:
                        saq.total_pops += 1
                        clock.ticks += 1
                        saq_items.popleft()
                        sdq.total_pops += 1
                        clock.ticks += 1
                        sdq_items.popleft()
                        e_log = engine.replay_log
                        if e_log is not None:
                            e_log.append(("sd",))
                    else:
                        laq.total_pops += 1
                        clock.ticks += 1
                        laq_items.popleft()
                        in_flight_loads.append(e_head)
                    mem_stats.output_bus_busy_cycles += 1
                    if e_store:
                        mem_stats.fpu_stores_accepted += 1
                    else:
                        mem_stats.fpu_loads_accepted += 1
                    f_req = None
            elif not (external._accepted_this_cycle or external.in_flight):
                e_head.accepted_at = now
                e_head.ready_at = now + mem_access
                external.in_flight.append(e_head)
                external.total_accepted += 1
                external._accepted_this_cycle = True
                clock.ticks += 1
                if e_store:
                    saq.total_pops += 1
                    clock.ticks += 1
                    saq_items.popleft()
                    sdq.total_pops += 1
                    clock.ticks += 1
                    sdq_items.popleft()
                    e_log = engine.replay_log
                    if e_log is not None:
                        e_log.append(("sd",))
                else:
                    laq.total_pops += 1
                    clock.ticks += 1
                    laq_items.popleft()
                    in_flight_loads.append(e_head)
                mem_stats.output_bus_busy_cycles += 1
                if e_store:
                    mem_stats.stores_accepted += 1
                else:
                    mem_stats.loads_accepted += 1
                f_req = None
        if f_req is not None:
            if not (61440 <= f_req.address < 61504 or external._accepted_this_cycle or external.in_flight):
                f_req.accepted_at = now
                f_req.ready_at = now + mem_access
                external.in_flight.append(f_req)
                external.total_accepted += 1
                external._accepted_this_cycle = True
                clock.ticks += 1
                frontend._request_accepted = True
                mem_stats.output_bus_busy_cycles += 1
                if f_req.demand:
                    mem_stats.ifetch_demand_accepted += 1
                else:
                    mem_stats.ifetch_prefetch_accepted += 1
        now += 1
        if backend.halted and not laq_items and not saq_items and not sdq_items and not in_flight_loads and not external.in_flight and not fpu._ops_pending and not fpu._results_ready and not fpu._result_loads:
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
