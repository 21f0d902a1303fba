package obs

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// EventLog is a bounded, concurrency-safe ring of free-form diagnostic
// lines — the channel failure paths use to leave a trail (e.g. the
// elastic master recording which rank it evicted during which op). Unlike
// metrics it keeps full text; unlike spans it needs no matching end.
// A nil *EventLog is a valid, disabled log.
type EventLog struct {
	mu      sync.Mutex
	cap     int
	entries []LogEntry
	start   int   // index of oldest entry when the ring is full
	seq     int64 // total entries ever appended (cursor for EntriesSince)
}

// LogEntry is one recorded event.
type LogEntry struct {
	// Time is when the event was recorded.
	Time time.Time
	// Rank is the reporting rank, or -1 when not rank-attributed.
	Rank int
	// Text is the rendered message.
	Text string
}

// DefaultEventLogSize bounds NewEventLog(0).
const DefaultEventLogSize = 256

// NewEventLog creates a log retaining the most recent size entries
// (DefaultEventLogSize when size <= 0).
func NewEventLog(size int) *EventLog {
	if size <= 0 {
		size = DefaultEventLogSize
	}
	return &EventLog{cap: size}
}

// Addf formats and records an event; nil-safe.
func (l *EventLog) Addf(rank int, format string, args ...any) {
	if l == nil {
		return
	}
	e := LogEntry{Time: time.Now(), Rank: rank, Text: fmt.Sprintf(format, args...)}
	l.mu.Lock()
	if len(l.entries) < l.cap {
		l.entries = append(l.entries, e)
	} else {
		l.entries[l.start] = e
		l.start = (l.start + 1) % l.cap
	}
	l.seq++
	l.mu.Unlock()
}

// Seq returns the total number of entries ever appended (including any
// the ring has since overwritten) — a cursor for EntriesSince; nil-safe.
func (l *EventLog) Seq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// EntriesSince returns the retained entries appended after cursor seq
// (a value previously returned by Seq or EntriesSince; pass 0 for
// everything retained) plus the new cursor. Entries overwritten by the
// ring before the call are silently missing — the telemetry shipper's
// incremental reads tolerate that the same way span drops are
// tolerated; nil-safe.
func (l *EventLog) EntriesSince(seq int64) ([]LogEntry, int64) {
	if l == nil {
		return nil, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	newer := l.seq - seq
	if newer <= 0 {
		return nil, l.seq
	}
	if n := int64(len(l.entries)); newer > n {
		newer = n
	}
	all := make([]LogEntry, 0, len(l.entries))
	all = append(all, l.entries[l.start:]...)
	all = append(all, l.entries[:l.start]...)
	return all[int64(len(all))-newer:], l.seq
}

// Entries returns a copy of the retained events, oldest first; nil-safe.
func (l *EventLog) Entries() []LogEntry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LogEntry, 0, len(l.entries))
	out = append(out, l.entries[l.start:]...)
	out = append(out, l.entries[:l.start]...)
	return out
}

// Len returns the number of retained events; nil-safe.
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// WriteText renders the retained events, one "time [rank] text" line
// each, oldest first; nil-safe.
func (l *EventLog) WriteText(w io.Writer) error {
	for _, e := range l.Entries() {
		if _, err := fmt.Fprintf(w, "%s [rank %d] %s\n", e.Time.Format(time.RFC3339Nano), e.Rank, e.Text); err != nil {
			return err
		}
	}
	return nil
}
