package engine

import (
	"fmt"
	"sort"

	"pegflow/internal/kickstart"
	"pegflow/internal/planner"
)

// EventType classifies executor events.
type EventType int

const (
	// EventFinished reports a successful attempt.
	EventFinished EventType = iota
	// EventFailed reports an attempt that ran and failed.
	EventFailed
	// EventEvicted reports an attempt preempted by the resource owner.
	EventEvicted
)

// String returns the event type name.
func (t EventType) String() string {
	switch t {
	case EventFinished:
		return "finished"
	case EventFailed:
		return "failed"
	case EventEvicted:
		return "evicted"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// Event is one terminal executor notification for a job attempt.
type Event struct {
	// JobID names the planned job.
	JobID string
	// Type is the attempt outcome.
	Type EventType
	// Time is the event time in seconds of workflow-relative time.
	Time float64
	// Record is the kickstart record of the attempt. It may be nil when
	// Members carries the attempt's records instead.
	Record *kickstart.Record
	// Members carries the per-task kickstart records of a clustered
	// (composite) job's attempt — one per payload task, in on-node
	// execution order. The engine appends them to the log after Record,
	// so per-task statistics stay comparable with unclustered runs.
	Members []*kickstart.Record
}

// Executor runs planned jobs. Submit must not block; Next blocks until an
// event is available and may only be called while at least one submitted
// job is unfinished. Now reports workflow-relative time in seconds.
type Executor interface {
	Submit(job *planner.Job, attempt int)
	Next() Event
	Now() float64
}

// RetryPolicy decides where a failing job's next attempt runs. It receives
// the job as last submitted, the attempt number that just failed, the site
// of the failed attempt and whether it was evicted (vs. failed). Returning
// nil retries the job unchanged (same-site retry, the DAGMan default);
// returning a job re-targets the retry — planner.Failover re-resolves the
// job onto a sibling site of a multi-site plan. The returned job must keep
// the original ID: it is the same DAG node, re-bound.
type RetryPolicy func(job *planner.Job, attempt int, lastSite string, evicted bool) *planner.Job

// Options tunes the meta-scheduler.
type Options struct {
	// RetryLimit is the number of additional attempts granted to a
	// failing job (Pegasus-style job retries). 0 disables retries.
	RetryLimit int
	// MaxActive caps jobs in flight (DAGMan's maxjobs throttle).
	// 0 means unlimited.
	MaxActive int
	// Retry, when set, is consulted before every retry and may re-target
	// the job (cross-site failover). Nil keeps same-site retries.
	Retry RetryPolicy
	// Backoff, when set, delays every retry by the returned number of
	// seconds (of executor time). The delay applies after Retry has
	// re-targeted the job, so failover and backoff compose. It takes
	// effect through the executor's DelayedSubmitter capability; without
	// one the delay is accounted but the retry submits immediately.
	Backoff BackoffPolicy
	// Aggregate runs the result log in aggregation mode: records are
	// folded into fixed-size accumulators and sketches instead of
	// retained, and handed back to the executor through its
	// RecordRecycler capability — the memory-flat path for million-job
	// runs. Consumers that need raw records (timelines, log export)
	// must run exact.
	Aggregate bool
}

// RecordRecycler is an optional executor capability. In aggregation
// mode the engine folds each event's records without retaining them and
// returns the spent records here so the executor can reuse their arena
// slots. Recycle is only called between Next calls — never while the
// executor is advancing — and the record must not be read after it is
// recycled.
type RecordRecycler interface {
	Recycle(r *kickstart.Record)
}

// Result summarizes one engine run.
type Result struct {
	// Success reports whether every job completed.
	Success bool
	// Makespan is the workflow wall time in seconds: the time of the
	// last event (Pegasus's "Workflow Wall Time" starts at first
	// submission, which the engine performs at time zero).
	Makespan float64
	// Log holds the kickstart record of every attempt.
	Log *kickstart.Log
	// Completed and Unfinished partition the plan's job IDs.
	Completed, Unfinished []string
	// PermanentlyFailed lists jobs that exhausted their retries.
	PermanentlyFailed []string
	// Retries counts re-submissions.
	Retries int
	// Evictions counts attempts ended by preemption.
	Evictions int
	// Failovers counts retries the retry policy re-targeted to a
	// different site (a subset of Retries).
	Failovers int
	// Backoffs counts retries that were delayed by the backoff policy,
	// and BackoffSeconds sums those delays (executor-time seconds).
	Backoffs       int
	BackoffSeconds float64

	// rescue is the sorted rescue workflow, computed once at end-of-run
	// so RescueWorkflow is a copy, not a re-sort, per call.
	rescue []string
}

// RescueWorkflow returns the IDs that a rescue DAG would contain: all jobs
// not completed, in a deterministic order.
func (r *Result) RescueWorkflow() []string {
	if r.rescue == nil && len(r.Unfinished) > 0 {
		// Hand-assembled Result (tests): fall back to sorting here.
		out := append([]string(nil), r.Unfinished...)
		sort.Strings(out)
		return out
	}
	return append([]string(nil), r.rescue...)
}

// readyItem is one entry of the ready queue, stored by value.
type readyItem struct {
	job   *planner.Job
	pos   int32 // dense index position of the job
	seq   int32
	delay float64 // backoff before submission; 0 submits immediately
}

// readyQueue orders ready jobs by priority (higher first), breaking ties
// by submission sequence (FIFO). It is a hand-rolled binary heap of values
// — container/heap's interface would box every item through `any`,
// allocating on each push in the engine's hot loop.
//
// A by-value copy aliases the heap backing array; slabcopy flags it.
//
//pegflow:slab
type readyQueue struct {
	items []readyItem
	seq   int32
}

func (q *readyQueue) less(a, b readyItem) bool {
	if a.job.Priority != b.job.Priority {
		return a.job.Priority > b.job.Priority
	}
	return a.seq < b.seq
}

func (q *readyQueue) push(job *planner.Job, pos int32, delay float64) {
	q.items = append(q.items, readyItem{job: job, pos: pos, seq: q.seq, delay: delay})
	q.seq++
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(q.items[i], q.items[parent]) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *readyQueue) pop() readyItem {
	top := q.items[0]
	n := len(q.items) - 1
	q.items[0] = q.items[n]
	q.items[n] = readyItem{}
	q.items = q.items[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		smallest := left
		if right := left + 1; right < n && q.less(q.items[right], q.items[left]) {
			smallest = right
		}
		if !q.less(q.items[smallest], q.items[i]) {
			break
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
	return top
}

// Run executes the plan on the executor.
//
// Per-job bookkeeping is index-addressed: the plan's dense Index interns
// job IDs to contiguous integers at plan time, so the dispatch loop runs
// on slices (indegree, attempts, completion) with a single map lookup per
// executor event instead of four string-map probes per dispatch.
func Run(plan *planner.Plan, ex Executor, opts Options) (*Result, error) {
	idx, err := plan.Indexed()
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	n := len(idx.Order)

	indeg := append([]int32(nil), idx.Indegree...)
	attempts := make([]int, n)
	done := make([]bool, n)
	// resited tracks jobs the retry policy re-targeted, so later retries
	// start from the job as last submitted (the plan itself is never
	// mutated — it may be shared or reused).
	var resited []*planner.Job

	res := &Result{Log: &kickstart.Log{}}
	var recycler RecordRecycler
	if opts.Aggregate {
		res.Log.SetAggregate()
		recycler, _ = ex.(RecordRecycler)
	}
	ready := &readyQueue{}
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			ready.push(plan.JobAt(int32(i)), int32(i), 0)
		}
	}

	delayed, _ := ex.(DelayedSubmitter)
	inflight := 0
	submit := func() {
		for len(ready.items) > 0 && (opts.MaxActive == 0 || inflight < opts.MaxActive) {
			it := ready.pop()
			attempts[it.pos]++
			if it.delay > 0 && delayed != nil {
				delayed.SubmitAfter(it.job, attempts[it.pos], it.delay)
			} else {
				ex.Submit(it.job, attempts[it.pos])
			}
			inflight++
		}
	}

	submit()
	for inflight > 0 {
		ev := ex.Next()
		inflight--
		if ev.Record != nil {
			if err := res.Log.Append(ev.Record); err != nil {
				return nil, fmt.Errorf("engine: job %q: %w", ev.JobID, err)
			}
		}
		for _, r := range ev.Members {
			if err := res.Log.Append(r); err != nil {
				return nil, fmt.Errorf("engine: job %q member %q: %w", ev.JobID, r.JobID, err)
			}
		}
		if ev.Time > res.Makespan {
			res.Makespan = ev.Time
		}
		pos, ok := idx.Pos(ev.JobID)
		if !ok {
			return nil, fmt.Errorf("engine: executor reported unknown job %q", ev.JobID)
		}
		switch ev.Type {
		case EventFinished:
			done[pos] = true
			for _, child := range idx.Children[pos] {
				indeg[child]--
				if indeg[child] == 0 {
					ready.push(plan.JobAt(child), child, 0)
				}
			}
		case EventFailed, EventEvicted:
			if ev.Type == EventEvicted {
				res.Evictions++
			}
			if attempts[pos] <= opts.RetryLimit {
				// Resubmit; the attempt counter increments on submit.
				res.Retries++
				job := plan.JobAt(pos)
				if resited != nil && resited[pos] != nil {
					job = resited[pos]
				}
				if opts.Retry != nil {
					lastSite := job.Site
					if ev.Record != nil && ev.Record.Site != "" {
						lastSite = ev.Record.Site
					}
					if nj := opts.Retry(job, attempts[pos], lastSite, ev.Type == EventEvicted); nj != nil {
						if nj.ID != job.ID {
							return nil, fmt.Errorf("engine: retry policy renamed job %q to %q", job.ID, nj.ID)
						}
						if nj.Site != job.Site {
							res.Failovers++
						}
						if resited == nil {
							resited = make([]*planner.Job, n)
						}
						resited[pos] = nj
						job = nj
					}
				}
				var delay float64
				if opts.Backoff != nil {
					// Drawn here, in event order, so the jitter sequence is
					// deterministic for a given seed regardless of executor.
					if delay = opts.Backoff(attempts[pos]); delay > 0 {
						res.Backoffs++
						res.BackoffSeconds += delay
					}
				}
				ready.push(job, pos, delay)
			} else {
				res.PermanentlyFailed = append(res.PermanentlyFailed, ev.JobID)
			}
		default:
			return nil, fmt.Errorf("engine: unknown event type %v for job %q", ev.Type, ev.JobID)
		}
		if recycler != nil {
			// The records were folded into the aggregating log above and
			// the retry branch has taken what it needs (ev.Record.Site);
			// hand the slots back to the executor's arena.
			if ev.Record != nil {
				recycler.Recycle(ev.Record)
			}
			for _, r := range ev.Members {
				recycler.Recycle(r)
			}
		}
		submit()
	}

	for i, id := range idx.Order {
		if done[i] {
			res.Completed = append(res.Completed, id)
		} else {
			res.Unfinished = append(res.Unfinished, id)
		}
	}
	res.Success = len(res.Unfinished) == 0
	sort.Strings(res.PermanentlyFailed)
	res.rescue = append([]string(nil), res.Unfinished...)
	sort.Strings(res.rescue)
	return res, nil
}
