package sweepd

import (
	"fmt"
	"net/http"
	"strconv"
)

func (h *handler) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// series declares a metric family and writes its one unlabelled
	// sample; a nil v declares only, for the labelled samples that follow
	// (format is the sample's name and label set).
	series := func(name, kind, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, kind)
		if v != nil {
			fmt.Fprintf(w, "%s %v\n", name, v)
		}
	}
	sample := func(v any, format string, labels ...any) {
		fmt.Fprintf(w, format+" %v\n", append(labels, v)...)
	}
	states := []string{"alive", "suspect", "down"}

	ms := h.m.Stats()
	cs := h.m.CacheStats()
	cellsPerSec := 0.0
	if secs := ms.Uptime.Seconds(); secs > 0 {
		cellsPerSec = float64(ms.CellsAppended) / secs
	}
	series("sweepd_cells_appended_total", "counter", "Checkpoint lines written since daemon start (computed or cache-served).", ms.CellsAppended)
	series("sweepd_cells_per_second", "gauge", "Mean checkpoint throughput over the daemon's uptime.", cellsPerSec)
	series("sweepd_uptime_seconds", "gauge", "Seconds since the daemon's manager started.", ms.Uptime.Seconds())
	series("sweepd_cache_hits_total", "counter", "Result-cache hits (memory and disk tiers).", cs.Hits)
	series("sweepd_cache_disk_hits_total", "counter", "Subset of hits read from a retained job's checkpoint.", cs.DiskHits)
	series("sweepd_cache_misses_total", "counter", "Result-cache misses.", cs.Misses)
	series("sweepd_cache_evictions_total", "counter", "Memory-tier LRU evictions.", cs.Evictions)
	series("sweepd_cache_entries", "gauge", "Entries resident in the memory tier.", cs.Entries)
	series("sweepd_jobs", "gauge", "Jobs per lifecycle status.", nil)
	for _, st := range []JobStatus{StatusRunning, StatusDone, StatusCanceled, StatusFailed} {
		sample(ms.Jobs[st], "sweepd_jobs{status=%q}", st)
	}
	series("sweepd_jobs_evicted_total", "counter", "Jobs removed by TTL GC or explicit purge.", ms.JobsEvicted)
	series("sweepd_queue_depth", "gauge", "Running jobs contending for the shared worker gate.", ms.QueueDepth)
	series("sweepd_busy_workers", "gauge", "Worker-pool tokens currently checked out.", ms.BusyWorkers)
	series("sweepd_throttled_requests_total", "counter", "Requests shed with 429 by the rate limiter.", h.throttled.Load())
	series("sweepd_quota_rejections_total", "counter", "Submissions refused by the -max-jobs cap.", h.quotaRejections.Load())
	series("sweepd_peer_leases_served_total", "counter", "Leases this daemon completed for remote leaders.", h.leasesServed.Load())
	series("sweepd_peer_cells_served_total", "counter", "Cell result lines streamed to remote leaders.", h.leaseCellsServed.Load())
	series("sweepd_remote_cells_total", "counter", "Cells of this daemon's jobs computed by peers.", ms.RemoteCells)
	if h.peerStats != nil {
		ps := h.peerStats()
		series("sweepd_peers", "gauge", "Alive cluster members this daemon would lease cells to.", ps.Peers)
		series("sweepd_peer_leases_issued_total", "counter", "Lease attempts sent to peers.", ps.LeasesIssued)
		series("sweepd_peer_lease_failures_total", "counter", "Leases that failed and were reclaimed locally.", ps.LeaseFailures)
	}
	if h.cluster != nil {
		cl := h.cluster.ClusterStats()
		series("sweepd_cluster_members", "gauge", "Known cluster members per health state (self excluded).", nil)
		for _, state := range states {
			sample(cl.MembersByState[state], "sweepd_cluster_members{state=%q}", state)
		}
		series("sweepd_cluster_peer_state", "gauge", "Per-peer membership state (1 = current state).", nil)
		for _, m := range h.cluster.Members() {
			if m.Self {
				continue
			}
			for _, state := range states {
				v := 0
				if m.State == state {
					v = 1
				}
				sample(v, "sweepd_cluster_peer_state{peer=%q,state=%q}", m.URL, state)
			}
		}
		series("sweepd_cluster_probes_total", "counter", "Health probes sent to peers.", cl.Probes)
		series("sweepd_cluster_probe_failures_total", "counter", "Health probes that failed.", cl.ProbeFailures)
		series("sweepd_cluster_backoffs_total", "counter", "Times a down peer's probe backoff was raised.", cl.Backoffs)
		series("sweepd_cluster_readmissions_total", "counter", "Down peers revived by a successful probe or hello.", cl.Readmissions)
		series("sweepd_cluster_tombstones", "gauge", "Decommissioned member URLs currently barred from gossip resurrection.", cl.Tombstones)
		series("sweepd_cluster_tombstoned_total", "counter", "Members decommissioned after staying down past the tombstone deadline.", cl.Tombstoned)
		series("sweepd_cluster_job_leases", "gauge", "Job leadership leases in this member's table.", cl.Leases)
	}
	if h.schedStats != nil {
		ss := h.schedStats()
		series("sweepd_sched_adoptions_total", "counter", "Orphaned jobs this member adopted from dead leaders.", ss.Adoptions)
		series("sweepd_sched_leadership_lost_total", "counter", "Local jobs ceded to a peer holding a newer lease generation.", ss.LeadershipLost)
		series("sweepd_sched_replica_seeds_total", "counter", "Adoptions seeded from this member's replica of the job.", ss.ReplicaSeeds)
	}
	if h.replicaStats != nil {
		rs := h.replicaStats()
		series("sweepd_replicas_pushed_total", "counter", "Finished-job replicas successfully pushed to peers.", rs.Pushed)
		series("sweepd_replica_push_failures_total", "counter", "Replica pushes that failed.", rs.PushFailures)
		series("sweepd_replica_bytes_pushed_total", "counter", "Body bytes of successful replica pushes.", rs.BytesPushed)
	}
	if rset := h.m.Replicas(); rset != nil {
		series("sweepd_replicas_held", "gauge", "Finished-job replicas currently stored for other members.", len(rset.List()))
		series("sweepd_replicas_received_total", "counter", "Verified replica pushes stored on this daemon.", h.replicasReceived.Load())
		series("sweepd_replica_bytes_received_total", "counter", "Body bytes of stored replica pushes.", h.replicaBytesReceived.Load())
		series("sweepd_replica_reads_total", "counter", "Terminal reads served from this daemon's replica set.", h.replicaReads.Load())
		series("sweepd_replica_redirects_total", "counter", "Reads of unknown jobs answered with a one-hop redirect to a likely holder.", h.replicaRedirects.Load())
	}
	series("sweepd_not_modified_total", "counter", "Conditional reads answered 304 via ETag.", h.notModified.Load())
	// Per-job cell wall-time histograms (locally computed cells only).
	// Jobs with no observations are skipped, and evicted jobs drop their
	// series, so cardinality tracks the jobs kept within -job-ttl.
	if lats := h.m.JobLatencies(); len(lats) > 0 {
		series("sweepd_job_cell_seconds", "histogram", "Wall time of locally computed cells, per job.", nil)
		for _, jl := range lats {
			cum := uint64(0)
			for i, bound := range jl.Buckets {
				cum += jl.Counts[i]
				sample(cum, "sweepd_job_cell_seconds_bucket{job=%q,le=%q}", jl.ID, formatBound(bound))
			}
			cum += jl.Counts[len(jl.Buckets)]
			sample(cum, "sweepd_job_cell_seconds_bucket{job=%q,le=%q}", jl.ID, "+Inf")
			sample(jl.Sum, "sweepd_job_cell_seconds_sum{job=%q}", jl.ID)
			sample(jl.Count, "sweepd_job_cell_seconds_count{job=%q}", jl.ID)
		}
	}
}

// formatBound renders a histogram bucket bound the way Prometheus
// expects (shortest float representation, no exponent for these scales).
func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}
