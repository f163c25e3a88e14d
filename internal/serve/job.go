package serve

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"cmpcache/internal/sweep"
)

// JobStatus is the lifecycle state of one submitted job.
type JobStatus string

const (
	// JobQueued: accepted, waiting for a worker.
	JobQueued JobStatus = "queued"
	// JobRunning: a worker is simulating it.
	JobRunning JobStatus = "running"
	// JobDone: finished successfully; Result holds the payload.
	JobDone JobStatus = "done"
	// JobFailed: the simulation errored or panicked.
	JobFailed JobStatus = "failed"
	// JobCanceled: cancelled by the client or by shutdown before
	// completing.
	JobCanceled JobStatus = "canceled"
)

// Terminal reports whether the status is final.
func (s JobStatus) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// ServedBy extends CacheLevel with the singleflight source: a job that
// never executed because it attached to an identical in-flight
// submission reports "collapsed".
const ServedCollapsed CacheLevel = "collapsed"

// jobEvent is one server-sent event: a pre-rendered JSON payload under
// an SSE event type.
type jobEvent struct {
	Type string
	Data []byte
}

// jobState is the server-side record of one submitted job. A jobState
// is either a *primary* (it owns a queue slot and will execute, unless
// served from cache at submit) or a *waiter* collapsed onto an
// identical in-flight primary (singleflight: one simulation serves all
// of them).
type jobState struct {
	ID  string
	Key string
	Job sweep.Job
	// origin is the X-Request-Id of the submission that created this
	// job; every later log line about the job (run, cache store) carries
	// it, so one grep traces a request across layers.
	origin string

	mu       sync.Mutex
	status   JobStatus
	cached   bool
	level    CacheLevel
	errMsg   string
	result   []byte // shared, read-only result JSON
	enqueued time.Time
	started  time.Time
	finished time.Time
	cancel   context.CancelFunc
	waiters  []*jobState // collapsed identical submissions (primary only)
	subs     map[chan jobEvent]struct{}

	done chan struct{} // closed exactly once, on reaching a terminal status
}

func newJobState(id, key string, job sweep.Job, origin string) *jobState {
	return &jobState{
		ID:       id,
		Key:      key,
		Job:      job,
		origin:   origin,
		status:   JobQueued,
		enqueued: time.Now(),
		subs:     make(map[chan jobEvent]struct{}),
		done:     make(chan struct{}),
	}
}

// enqueuedAt returns the submission instant (immutable after creation,
// but read under mu for the race detector's sake).
func (j *jobState) enqueuedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.enqueued
}

// JobView is the API representation of a job.
type JobView struct {
	ID         string          `json:"id"`
	Key        string          `json:"key"`
	Origin     string          `json:"origin,omitempty"` // submitting request's X-Request-Id
	Job        sweep.Job       `json:"job"`
	Status     JobStatus       `json:"status"`
	Cached     bool            `json:"cached"`
	CacheLevel CacheLevel      `json:"cache_level,omitempty"`
	Error      string          `json:"error,omitempty"`
	EnqueuedAt time.Time       `json:"enqueued_at"`
	WaitMS     int64           `json:"wait_ms"`          // enqueue -> start (or now)
	RunMS      int64           `json:"run_ms,omitempty"` // start -> finish
	Result     json.RawMessage `json:"result,omitempty"` // only when includeResult
}

// view snapshots the job for the API; includeResult embeds the full
// result JSON (GET /v1/jobs/{id} wants it, event frames do not).
func (j *jobState) view(includeResult bool) JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.ID,
		Key:        j.Key,
		Origin:     j.origin,
		Job:        j.Job,
		Status:     j.status,
		Cached:     j.cached,
		CacheLevel: j.level,
		Error:      j.errMsg,
		EnqueuedAt: j.enqueued,
	}
	switch {
	case !j.started.IsZero():
		v.WaitMS = j.started.Sub(j.enqueued).Milliseconds()
	case !j.finished.IsZero(): // served from cache without running
		v.WaitMS = j.finished.Sub(j.enqueued).Milliseconds()
	default:
		v.WaitMS = time.Since(j.enqueued).Milliseconds()
	}
	if !j.finished.IsZero() && !j.started.IsZero() {
		v.RunMS = j.finished.Sub(j.started).Milliseconds()
	}
	if includeResult && j.status == JobDone {
		v.Result = json.RawMessage(j.result)
	}
	return v
}

// snapshot returns (status, result) without exposing internals.
func (j *jobState) snapshot() (JobStatus, []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.result
}

// markRunning transitions queued -> running and installs the cancel
// function. It reports false if the job already reached a terminal
// state (cancelled while queued).
func (j *jobState) markRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	if j.status != JobQueued {
		j.mu.Unlock()
		return false
	}
	j.status = JobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	j.publishStatus()
	return true
}

// complete moves the job to a terminal status exactly once and wakes
// everyone waiting on it. Safe to call on any state; a second terminal
// transition is ignored.
func (j *jobState) complete(status JobStatus, result []byte, errMsg string, cached bool, level CacheLevel) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	j.status = status
	j.result = result
	j.errMsg = errMsg
	j.cached = cached
	j.level = level
	j.finished = time.Now()
	j.cancel = nil
	close(j.done)
	j.mu.Unlock()
	j.publishStatus()
	return true
}

// requestCancel asks a queued or running job to stop: a queued job
// completes as canceled here (completed reports that it did), a running
// job gets its context cancelled and the worker observes it and
// completes the job. ok reports whether the job was still cancellable.
func (j *jobState) requestCancel(reason string) (ok, completed bool) {
	j.mu.Lock()
	switch {
	case j.status == JobQueued:
		j.mu.Unlock()
		completed = j.complete(JobCanceled, nil, reason, false, CacheMiss)
		return completed, completed
	case j.status == JobRunning && j.cancel != nil:
		cancel := j.cancel
		j.mu.Unlock()
		cancel()
		return true, false
	default:
		j.mu.Unlock()
		return false, false
	}
}

// subscribe registers an event channel; unsubscribe removes it.
func (j *jobState) subscribe(buf int) chan jobEvent {
	ch := make(chan jobEvent, buf)
	j.mu.Lock()
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return ch
}

func (j *jobState) unsubscribe(ch chan jobEvent) {
	j.mu.Lock()
	delete(j.subs, ch)
	j.mu.Unlock()
}

// publishStatus fans the current JobView out to subscribers. Sends are
// non-blocking: a slow consumer misses intermediate transitions but
// never stalls the worker, and the SSE handler re-snapshots the final
// state after done closes, so nothing terminal is lost.
func (j *jobState) publishStatus() {
	data, err := json.Marshal(j.view(false))
	if err != nil {
		return
	}
	j.mu.Lock()
	for ch := range j.subs {
		select {
		case ch <- jobEvent{Type: "status", Data: data}:
		default:
		}
	}
	j.mu.Unlock()
}
