package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"sync"
)

// WorkerState is one worker's liveness as seen by the master.
type WorkerState string

// Worker states surfaced at /healthz.
const (
	// WorkerLive: the worker is answering the runtime.
	WorkerLive WorkerState = "live"
	// WorkerEvicted: the elastic runtime evicted the worker.
	WorkerEvicted WorkerState = "evicted"
)

// Health is the live run state behind /healthz: the session phase, each
// worker's liveness, and training progress. All methods are cheap and
// safe for concurrent use; the nil Health is a valid no-op.
type Health struct {
	mu        sync.Mutex
	state     string
	workers   map[int]WorkerState
	evictions int
	iter      int
	loss      float64
}

// NewHealth builds a tracker in the "init" state.
func NewHealth() *Health {
	return &Health{state: "init", workers: map[int]WorkerState{}}
}

// SetState records the session phase ("init", "training", "degraded",
// "done", "failed"); nil-safe.
func (h *Health) SetState(state string) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.state = state
	h.mu.Unlock()
}

// SetWorker records one worker's liveness; an eviction bumps the
// eviction count; nil-safe.
func (h *Health) SetWorker(rank int, s WorkerState) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if s == WorkerEvicted && h.workers[rank] != WorkerEvicted {
		h.evictions++
	}
	h.workers[rank] = s
	h.mu.Unlock()
}

// SetProgress records the training iteration and loss; nil-safe.
func (h *Health) SetProgress(iter int, loss float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.iter = iter
	h.loss = loss
	h.mu.Unlock()
}

// healthView is the JSON shape /healthz serves.
type healthView struct {
	State     string            `json:"state"`
	Workers   map[string]string `json:"workers"`
	Live      int               `json:"live"`
	Evictions int               `json:"evictions"`
	Iter      int               `json:"iter"`
	Loss      float64           `json:"loss"`
}

// Healthy reports whether the run is in a good state: not failed, and
// no worker currently evicted; nil-safe (a disabled tracker is
// healthy).
func (h *Health) Healthy() bool {
	if h == nil {
		return true
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.state == "failed" {
		return false
	}
	for _, s := range h.workers {
		if s != WorkerLive {
			return false
		}
	}
	return true
}

// WriteJSON writes the current state as JSON; nil-safe.
func (h *Health) WriteJSON(w io.Writer) error {
	v := healthView{State: "disabled", Workers: map[string]string{}}
	if h != nil {
		h.mu.Lock()
		v.State = h.state
		v.Evictions = h.evictions
		v.Iter = h.iter
		v.Loss = h.loss
		ranks := make([]int, 0, len(h.workers))
		for r := range h.workers {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		for _, r := range ranks {
			v.Workers[strconv.Itoa(r)] = string(h.workers[r])
			if h.workers[r] == WorkerLive {
				v.Live++
			}
		}
		h.mu.Unlock()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
