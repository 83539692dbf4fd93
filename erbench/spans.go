package main

import "time"

// The benchmark's tracing: spans recorded around calls into each
// layer's public functions, kept in memory and summarized when the run
// ends. Spans never reach into the program; a span covers one call as
// seen from the benchmark.

// coverageMin is the share of a traced pass's (or cold job's) time that
// the layer spans must account for; the self-test holds traced runs to
// it.
const coverageMin = 0.95

// span is one timed call. Root spans (parent < 0) cover a goroutine's
// whole share of a pass or job; leaf spans are the layer calls inside
// it, so a root's self time is whatever no layer call accounts for.
type span struct {
	name       string
	start, end time.Duration // since the tracer's base
	parent     int
}

func (s span) dur() time.Duration { return s.end - s.start }

// lane records the spans of one goroutine, so recording takes no lock.
type lane struct {
	base  time.Time
	spans []span
	root  int
}

func newLane(base time.Time) *lane { return &lane{base: base, root: -1} }

func (l *lane) now() time.Duration { return time.Since(l.base) }

// open starts a root span; close ends it.
func (l *lane) open(name string) {
	t := l.now()
	l.spans = append(l.spans, span{name: name, start: t, parent: -1})
	l.root = len(l.spans) - 1
}

func (l *lane) close() {
	l.spans[l.root].end = l.now()
	l.root = -1
}

// add records a leaf span that started at t0 and ends now.
func (l *lane) add(name string, t0 time.Duration) time.Duration {
	t := l.now()
	l.spans = append(l.spans, span{name: name, start: t0, end: t, parent: l.root})
	return t
}

// selfTimes sums each span name's self time (duration minus the leaf
// spans under it) over the given lanes, and returns how much of the
// root spans' time the leaves cover.
func selfTimes(lanes []*lane) (self map[string]time.Duration, coverage float64) {
	self = map[string]time.Duration{}
	var rootT, leafT time.Duration
	for _, l := range lanes {
		for _, s := range l.spans {
			if s.parent < 0 {
				rootT += s.dur()
				self[s.name] += s.dur()
				continue
			}
			leafT += s.dur()
			self[s.name] += s.dur()
			self[l.spans[s.parent].name] -= s.dur()
		}
	}
	if rootT > 0 {
		coverage = float64(leafT) / float64(rootT)
	}
	return self, coverage
}
