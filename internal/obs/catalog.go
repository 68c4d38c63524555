package obs

// The gateway metric catalog. Every runtime package records into these
// series on the Default registry; pre-registration at startup makes the
// exposition endpoint list the complete catalog (zero-valued until first
// use) even before any traffic flows. docs/OBSERVABILITY.md documents each
// metric's meaning and the paper quantity it corresponds to — keep the two
// lists in sync.
const (
	// Coordination plane: message queues (§6.2 MessageQueue, Figure 6-9).
	MQueuePostTotal        = "mobigate_queue_post_total"
	MQueueFetchTotal       = "mobigate_queue_fetch_total"
	MQueueDropTotal        = "mobigate_queue_drop_total"
	MQueuePostWaitSeconds  = "mobigate_queue_post_wait_seconds"
	MQueueFetchWaitSeconds = "mobigate_queue_fetch_wait_seconds"
	MQueueQueuedMessages   = "mobigate_queue_queued_messages"
	MQueueQueuedBytes      = "mobigate_queue_queued_bytes"

	// Batched data plane (PostN/FetchN and the batch pumps): items moved
	// per batched operation (the size histograms record counts, not
	// seconds) and batched post flushes.
	MBatchPostSize     = "mobigate_batch_post_size"
	MBatchFetchSize    = "mobigate_batch_fetch_size"
	MBatchFlushesTotal = "mobigate_batch_flushes_total"

	// Central message pool (§6.7 pass-by-reference buffer management).
	MPoolPutTotal  = "mobigate_pool_put_total"
	MPoolHitTotal  = "mobigate_pool_hit_total"
	MPoolMissTotal = "mobigate_pool_miss_total"
	MPoolCopyTotal = "mobigate_pool_copy_total"
	MPoolMessages  = "mobigate_pool_messages"
	MPoolBytes     = "mobigate_pool_bytes"

	// Streams and streamlets (§6.1/§6.3; Figure 7-2 per-streamlet cost,
	// Equation 7-1 reconfiguration time).
	MStreamletProcessSeconds = "mobigate_streamlet_process_seconds"
	MStreamProcessedTotal    = "mobigate_stream_processed_total"
	MStreamDroppedTotal      = "mobigate_stream_dropped_total"
	MStreamReconfigSeconds   = "mobigate_stream_reconfig_seconds"
	// Reconfigurations aborted because a drain deadline passed with
	// messages still in flight (§6.6 message-loss avoidance refused to
	// detach and strand them).
	MStreamDrainTimeoutsTotal = "mobigate_stream_reconfig_drain_timeouts_total"

	// Streamlet chain fusion (internal/stream fuse pass): stateless pipeline
	// segments collapsed into direct-call fused hops, and the dissolutions
	// (reconfiguration, heal, workers change, stream end) that un-collapse
	// them via the Figure 7-4 drain protocol.
	MFusedSegments     = "mobigate_fused_segments"
	MFusionDefuseTotal = "mobigate_fusion_defuse_total"

	// Parallel execution mode (per-streamlet worker fan-out behind a
	// sequence-numbered resequencer).
	MStreamletWorkersBusy = "mobigate_streamlet_workers_busy"
	MStreamletReseqDepth  = "mobigate_streamlet_resequencer_depth"

	// Execution-plane fault supervision (panic containment, processing
	// deadlines, per-streamlet recovery policies) and fault injection.
	MFaultInjectedTotal = "mobigate_fault_injected_total"
	MFaultPanicsTotal   = "mobigate_fault_panics_recovered_total"
	MFaultStallsTotal   = "mobigate_fault_stalls_total"
	MFaultRetriesTotal  = "mobigate_fault_retries_total"
	MFaultDroppedTotal  = "mobigate_fault_dropped_total"
	MFaultBypassedTotal = "mobigate_fault_bypassed_total"
	MFaultHealsTotal    = "mobigate_fault_heals_total"

	// Emulated wireless link (§7.1 testbed; Equation 7-2 transfer term).
	MLinkBandwidthBps    = "mobigate_link_bandwidth_bps"
	MLinkLossRate        = "mobigate_link_loss_rate"
	MLinkMessagesTotal   = "mobigate_link_messages_total"
	MLinkWireBytesTotal  = "mobigate_link_wire_bytes_total"
	MLinkTransferSeconds = "mobigate_link_transfer_seconds"

	// Event system (§6.4 Event Manager).
	MEventsRaisedTotal    = "mobigate_events_raised_total"
	MEventsDeliveredTotal = "mobigate_events_delivered_total"
	MEventsFilteredTotal  = "mobigate_events_filtered_total"
	MEventsDroppedTotal   = "mobigate_events_dropped_total"

	// Gateway server and front-end sessions (§3.3 Coordination Manager).
	MStreamsDeployedTotal = "mobigate_streams_deployed_total"
	MStreamsActive        = "mobigate_streams_active"
	MSessionsTotal        = "mobigate_sessions_total"
	MSessionsActive       = "mobigate_sessions_active"

	// Session layer (internal/session): logical client sessions multiplexed
	// onto shared streamlet instance pools, with per-session quotas, an
	// admission controller, and a load-shedder. Distinct from the front-end
	// TCP session metrics above: one TCP connection (or none — sessions can
	// be driven in-process) carries one logical session.
	MSessionConnectsTotal    = "mobigate_session_connects_total"
	MSessionDisconnectsTotal = "mobigate_session_disconnects_total"
	MSessionAdmitShedTotal   = "mobigate_session_admission_shed_total"
	MSessionLoadShedTotal    = "mobigate_session_load_shed_total"
	MSessionQuotaShedTotal   = "mobigate_session_quota_shed_total"
	MSessionLive             = "mobigate_session_live"
	MSessionDraining         = "mobigate_session_draining"
	MSessionQueuedBytes      = "mobigate_session_queued_bytes"

	// Session-scale observability (sessionstats.go): the deterministic
	// hash-based SLO sampler and the per-session latency-budget violations
	// it detects on sampled sessions.
	MSessionSampled             = "mobigate_session_sampled"
	MSessionSampleOverflowTotal = "mobigate_session_sample_overflow_total"
	MSessionSLOViolationsTotal  = "mobigate_session_slo_violations_total"

	// Component health model (health.go) and the /watch live stream.
	MHealthDegraded         = "mobigate_health_degraded"
	MHealthTransitionsTotal = "mobigate_health_transitions_total"
	MWatchClients           = "mobigate_watch_clients"
	MWatchEventsTotal       = "mobigate_watch_events_total"

	// Runtime self-stats (runtime.go): the Go runtime folded into the
	// registry as go_* series so operators and the autopilot see GC, heap
	// and scheduler headroom next to the gateway's own signals.
	MGoGoroutines         = "go_goroutines"
	MGoMaxProcs           = "go_gomaxprocs"
	MGoHeapBytes          = "go_heap_bytes"
	MGoHeapObjects        = "go_heap_objects"
	MGoGCCyclesTotal      = "go_gc_cycles_total"
	MGoGCPauseP50Seconds  = "go_gc_pause_p50_seconds"
	MGoGCPauseP99Seconds  = "go_gc_pause_p99_seconds"
	MGoSchedLatP99Seconds = "go_sched_latency_p99_seconds"

	// End-to-end span tracing (span.go), the flight recorder (flight.go),
	// the trace store, and latency-budget tracking (slo.go).
	MSpanRecordedTotal  = "mobigate_span_recorded_total"
	MSpanEvictedTotal   = "mobigate_span_evicted_total"
	MSpanBatchesTotal   = "mobigate_span_batches_total"
	MFlightEventsTotal  = "mobigate_flight_events_total"
	MFlightDumpsTotal   = "mobigate_flight_dumps_total"
	MTraceEvictedTotal  = "mobigate_trace_evicted_total"
	MSLOViolationsTotal = "mobigate_slo_violations_total"

	// Adaptive reconfiguration autopilot (internal/adapt): when-policy
	// evaluation ticks, the drain-safe rewrites rules triggered, firings
	// suppressed by cooldown or inapplicability, failed actions, and
	// policy hot-reloads applied by the server.
	MAdaptEvaluationsTotal = "mobigate_adapt_evaluations_total"
	MAdaptActionsTotal     = "mobigate_adapt_actions_total"
	MAdaptSuppressedTotal  = "mobigate_adapt_suppressed_total"
	MAdaptFailuresTotal    = "mobigate_adapt_failures_total"
	MAdaptReloadsTotal     = "mobigate_adapt_reloads_total"
)

// registerCatalog pre-seeds a registry with every catalog metric and its
// help text. Labeled series (the per-streamlet process histogram) appear
// once their first labeled observation arrives.
func registerCatalog(r *Registry) {
	for _, c := range []struct{ name, help string }{
		{MQueuePostTotal, "Messages posted to channel queues."},
		{MQueueFetchTotal, "Messages fetched from channel queues."},
		{MQueueDropTotal, "Messages dropped by full queues after the grace period (Figure 6-9)."},
		{MPoolPutTotal, "Messages stored into the central message pool."},
		{MPoolHitTotal, "Pool lookups that found the message."},
		{MPoolMissTotal, "Pool lookups for unknown message identifiers."},
		{MPoolCopyTotal, "Deep copies made by the pass-by-value pool mode (Figure 7-3 baseline)."},
		{MStreamProcessedTotal, "processMsg executions across all streamlets."},
		{MStreamDroppedTotal, "Messages lost to full output queues (wait-then-drop, paragraph 6.7) or dropped by fault supervision."},
		{MStreamDrainTimeoutsTotal, "Reconfigurations aborted because draining did not finish before the deadline (paragraph 6.6)."},
		{MFaultInjectedTotal, "Faults injected by the internal/fault injectors (panics, errors, stalls)."},
		{MFaultPanicsTotal, "Processor panics recovered by the streamlet supervisor."},
		{MFaultStallsTotal, "Processor executions abandoned after exceeding the per-message deadline."},
		{MFaultRetriesTotal, "Processor re-executions performed by the retry policy."},
		{MFaultDroppedTotal, "Messages dropped by fault policy after recovery was exhausted."},
		{MFaultBypassedTotal, "Messages forwarded unprocessed by the bypass fault policy."},
		{MFaultHealsTotal, "Self-healing reconfigurations (replace/remove) completed after faults."},
		{MLinkMessagesTotal, "Messages transmitted over emulated links."},
		{MLinkWireBytesTotal, "Wire bytes (body plus framing overhead) transmitted over emulated links."},
		{MEventsRaisedTotal, "Context events posted to the event manager."},
		{MEventsDeliveredTotal, "Event deliveries to subscribed streams."},
		{MEventsFilteredTotal, "Source-directed events withheld from non-matching subscribers."},
		{MEventsDroppedTotal, "Context events shed because the dispatch buffer was full (Post never blocks)."},
		{MStreamsDeployedTotal, "Stream instances deployed since startup."},
		{MSessionsTotal, "Front-end client sessions accepted since startup."},
		{MSessionConnectsTotal, "Logical sessions admitted by the session layer."},
		{MSessionDisconnectsTotal, "Logical sessions fully closed (drained and removed)."},
		{MSessionAdmitShedTotal, "Session connect attempts refused by the admission controller."},
		{MSessionLoadShedTotal, "Messages shed from admitted sessions while the shared plane was saturated."},
		{MSessionQuotaShedTotal, "Messages shed because the session's byte or message quota was exhausted."},
		{MSpanRecordedTotal, "Spans recorded into the span collector."},
		{MSpanEvictedTotal, "Spans overwritten in the collector ring before being read."},
		{MSpanBatchesTotal, "Client span batches merged back into the server collector."},
		{MFlightEventsTotal, "Plane events journaled by the flight recorder."},
		{MFlightDumpsTotal, "Flight-recorder auto-dumps captured on ExecutionFault."},
		{MTraceEvictedTotal, "Trace records evicted from the bounded trace store."},
		{MSLOViolationsTotal, "Latency-budget violations raised by the SLO tracker."},
		{MAdaptEvaluationsTotal, "Autopilot evaluation ticks across all policy engines."},
		{MAdaptActionsTotal, "Adaptations applied by when-policy rules (insert/remove/workers/param)."},
		{MAdaptSuppressedTotal, "Policy firings suppressed by cooldown or because the action was already in effect."},
		{MAdaptFailuresTotal, "Policy actions that failed to apply (e.g. drain timeout)."},
		{MAdaptReloadsTotal, "MCL hot-reloads applied to running servers."},
		{MBatchFlushesTotal, "Batched post flushes (PostN calls) across all channel queues."},
		{MFusionDefuseTotal, "Fused segments dissolved back into per-hop execution (reconfiguration, heal, workers change, or stream end)."},
		{MSessionSampleOverflowTotal, "Sessions selected by the SLO sampler but refused because the slot pool was exhausted."},
		{MSessionSLOViolationsTotal, "Per-session latency-budget violations detected on sampled sessions (edge-triggered per session)."},
		{MHealthTransitionsTotal, "Component health transitions (degraded or recovered) raised by the health model."},
		{MWatchEventsTotal, "Frames emitted to /watch subscribers."},
		{MGoGCCyclesTotal, "Completed Go GC cycles (delta-fed from runtime/metrics)."},
	} {
		r.Counter(c.name, c.help, nil)
	}
	// Hot-path occupancy counts are integer gauges (single atomic add per
	// update); the remaining gauges carry float values and stay Gauge.
	for _, g := range []struct{ name, help string }{
		{MQueueQueuedMessages, "Messages currently queued across all channels."},
		{MQueueQueuedBytes, "Bytes currently queued across all channels (the paragraph 4.2.2 buffer occupancy)."},
		{MPoolMessages, "Messages currently held by the central pool."},
		{MPoolBytes, "Body bytes currently held by the central pool."},
		{MFusedSegments, "Stateless pipeline segments currently running as direct-call fused hops."},
		{MStreamletWorkersBusy, "Parallel streamlet workers currently executing Process."},
		{MStreamletReseqDepth, "Completions parked in resequencers waiting for an earlier sequence number."},
		{MSessionLive, "Logical sessions currently admitted (active or idle)."},
		{MSessionDraining, "Logical sessions disconnected but still draining in-flight messages."},
		{MSessionQueuedBytes, "Bytes admitted against session quotas and not yet released by delivery."},
		{MSessionSampled, "Sessions currently holding an SLO sampler slot."},
		{MHealthDegraded, "Components the health model currently reports degraded."},
		{MWatchClients, "Live /watch subscribers."},
		{MGoGoroutines, "Goroutines currently live in the process."},
		{MGoMaxProcs, "GOMAXPROCS worker-thread limit."},
		{MGoHeapBytes, "Heap bytes occupied by live and dead objects (runtime/metrics heap objects class)."},
		{MGoHeapObjects, "Objects currently live on the Go heap."},
	} {
		r.IntGauge(g.name, g.help, nil)
	}
	for _, g := range []struct{ name, help string }{
		{MLinkBandwidthBps, "Configured bandwidth of the most recently adjusted link (bits/s)."},
		{MLinkLossRate, "Configured loss rate of the most recently adjusted link."},
		{MStreamsActive, "Stream instances currently deployed."},
		{MSessionsActive, "Front-end client sessions currently open."},
		{MGoGCPauseP50Seconds, "Median GC stop-the-world pause over the last collection interval (0 when no pauses)."},
		{MGoGCPauseP99Seconds, "p99 GC stop-the-world pause over the last collection interval (0 when no pauses)."},
		{MGoSchedLatP99Seconds, "p99 goroutine scheduling latency over the last collection interval (0 when idle)."},
	} {
		r.Gauge(g.name, g.help, nil)
	}
	for _, h := range []struct{ name, help string }{
		{MQueuePostWaitSeconds, "Time producers spent in Post, including full-queue waits (sampled: 1 in 64 operations)."},
		{MQueueFetchWaitSeconds, "Time consumers blocked in Fetch, including idle waiting for traffic (sampled: 1 in 64 operations)."},
		{MStreamletProcessSeconds, "Per-streamlet processMsg latency (Figure 7-2 quantity), labeled by streamlet id."},
		{MStreamReconfigSeconds, "Reconfiguration duration (Equation 7-1 total)."},
		{MLinkTransferSeconds, "Modelled per-message link transfer time (Equation 7-2 transfer term)."},
		{MBatchPostSize, "Items posted per batched PostN flush (count per operation, not seconds)."},
		{MBatchFetchSize, "Items drained per batched FetchN operation (count per operation, not seconds)."},
	} {
		r.Histogram(h.name, h.help, nil)
	}
}
