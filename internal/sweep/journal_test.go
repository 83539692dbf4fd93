package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"earlyrelease/internal/sweep/durable"
)

// openTestCoordinator is newTestCoordinator for durable coordinators.
// The cache is the store at <state>/cache, opened the way sweepd -state
// opens it: the journal names results, the store holds them.
func openTestCoordinator(t *testing.T, clk *fakeClock, cfg CoordConfig) *Coordinator {
	t.Helper()
	if clk != nil {
		cfg.now = clk.now
	}
	cache, err := OpenCache(filepath.Join(cfg.StateDir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := OpenCoordinator(cache, cfg)
	if err != nil {
		cache.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		cache.Close()
	})
	return c
}

// crash is a hard kill: the journal stops with no farewell snapshot,
// and the store is released so the next openTestCoordinator can reopen
// it, as it would after the process died.
func crash(t *testing.T, c *Coordinator) {
	t.Helper()
	c.Halt()
	if err := c.Cache().Close(); err != nil {
		t.Fatal(err)
	}
}

// completeWithEngine resolves a grant with real simulation results, so
// resumed state carries byte-comparable outcomes.
func completeWithEngine(t *testing.T, c *Coordinator, workerID string, grant *LeaseGrant) {
	t.Helper()
	res, err := (&Engine{}).RunPoints(pointsOf(grant), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := &CompleteRequest{LeaseID: grant.LeaseID, WorkerID: workerID}
	for i, it := range grant.Items {
		o := WireOutcome{Key: it.Key}
		if res.Outcomes[i].Err != "" {
			o.Err = res.Outcomes[i].Err
		} else {
			o.Result = res.Outcomes[i].Result
		}
		req.Outcomes = append(req.Outcomes, o)
	}
	if err := c.CompleteShard(req); err != nil {
		t.Fatal(err)
	}
}

// TestClosedCoordinatorRejectsLeaseCalls pins the Close contract the
// doc comment always promised: once closed, workers cannot lease,
// renew, or complete — every entry point answers ErrClosed.
func TestClosedCoordinatorRejectsLeaseCalls(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4}})
	w, _ := c.RegisterWorker("w")
	done := submitAsync(c, testPoints(4))

	grant, err := c.LeaseShard(w.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("pre-close lease: %v %v", grant, err)
	}
	c.Close()
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("queued job after close: %v", r.err)
	}

	if g, err := c.LeaseShard(w.WorkerID); g != nil || !errors.Is(err, ErrClosed) {
		t.Fatalf("lease after close: %v %v", g, err)
	}
	if err := c.RenewLease(w.WorkerID, grant.LeaseID); !errors.Is(err, ErrClosed) {
		t.Fatalf("renew after close: %v", err)
	}
	err = c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: w.WorkerID, Outcomes: fakeOutcomes(grant)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("complete after close: %v", err)
	}
}

// TestCloseDropsQueuedUnits: after Close returns, no late completion
// path may write into a job whose waiter already got ErrClosed — the
// queue and lease table are emptied under the same lock that marks the
// coordinator closed.
func TestCloseDropsQueuedUnits(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := newTestCoordinator(t, clk, CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 2}})
	w, _ := c.RegisterWorker("w")
	done := submitAsync(c, testPoints(4))
	grant, err := c.LeaseShard(w.WorkerID)
	if err != nil || grant == nil {
		t.Fatalf("lease: %v %v", grant, err)
	}

	c.Close()
	r := <-done
	if !errors.Is(r.err, ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", r.err)
	}
	// The late completion is rejected, and the waiter's Results (which
	// the caller may be reading right now) stay untouched.
	err = c.CompleteShard(&CompleteRequest{LeaseID: grant.LeaseID,
		WorkerID: w.WorkerID, Outcomes: fakeOutcomes(grant)})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("late completion: %v", err)
	}
	st := c.Status()
	if st.PendingShards != 0 || st.ActiveLeases != 0 {
		t.Fatalf("closed coordinator still holds work: %+v", st)
	}
}

// TestDonePreferredOverQuit drives the wait loop with both channels
// ready: a fully completed job must return its Results, never a
// spurious ErrClosed. Before the fix the select picked an arm at
// random, so 200 rounds make a regression effectively certain to trip.
func TestDonePreferredOverQuit(t *testing.T) {
	for i := 0; i < 200; i++ {
		c := NewCoordinator(nil, CoordConfig{LeaseTTL: time.Minute})
		job := &fedJob{
			res:    &Results{Outcomes: make([]*Outcome, 1)},
			total:  1,
			doneCh: make(chan struct{}),
		}
		c.mu.Lock()
		c.finishLocked(job, 0, &Outcome{Point: testPoints(1)[0], Err: "x"})
		c.mu.Unlock()
		c.Close() // both doneCh and quit are now closed
		res, err := c.wait(job)
		if err != nil || res == nil {
			t.Fatalf("round %d: completed job returned %v", i, err)
		}
	}
}

// TestCrashResumeReplaysQueue is the coordinator-level kill-and-resume
// proof: hard-halt mid-job (no snapshot — recovery runs on the WAL,
// including a garbage tail), reopen the state dir and its store, and
// the queue comes back exactly — resolved outcomes, the in-flight lease
// with its worker and attempt count, and the remaining pending work.
// Completing it yields Results byte-identical to an uninterrupted run
// with zero re-simulation of recovered points.
func TestCrashResumeReplaysQueue(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")

	pts := testPoints(8)
	done := submitJob(c1, "", "sw-1", pts)

	// Shard one: completed and journaled before the crash.
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil || len(g1.Items) != 4 {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	// Shard two: in flight when the coordinator dies.
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil || len(g2.Items) != 4 {
		t.Fatalf("second lease: %+v %v", g2, err)
	}

	crash(t, c1)
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}
	// A real crash can also tear the WAL tail; recovery must shrug it off.
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("torn-half-record")
	f.Close()

	// Reopen: the journal names the four resolved points, and a fresh
	// Cache over the reopened store serves their results by key.
	c2 := openTestCoordinator(t, clk, cfg)
	rec := c2.Recovered()
	if len(rec) != 1 || rec[0].Label != "sw-1" || rec[0].Done != 4 || rec[0].Total != 8 {
		t.Fatalf("recovered: %+v", rec)
	}
	if n := c2.Cache().Len(); n != 4 {
		t.Fatalf("recovered cache holds %d results, want 4", n)
	}
	st := c2.Status()
	if st.ActiveLeases != 1 || st.PendingShards != 0 {
		t.Fatalf("recovered queue: %+v", st)
	}

	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-1", nil)
		resumed <- runResult{res, err}
	}()

	// The restored lease still belongs to the pre-crash worker: it can
	// renew (ownership survived) and finish the shard it held.
	if err := c2.RenewLease("impostor", g2.LeaseID); !errors.Is(err, ErrWrongWorker) {
		t.Fatalf("impostor renewed restored lease: %v", err)
	}
	if err := c2.RenewLease(w1.WorkerID, g2.LeaseID); err != nil {
		t.Fatalf("restored lease renewal: %v", err)
	}
	completeWithEngine(t, c2, w1.WorkerID, g2)

	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatalf("resumed outcomes differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	// Zero re-simulation: the recovered half stayed "simulated" (its
	// original resolution), and nothing was served twice.
	if r.res.Stats.Simulated != 8 || r.res.Stats.CacheHits != 0 || r.res.Stats.Errors != 0 {
		t.Fatalf("resumed stats: %+v", r.res.Stats)
	}

	// The collected job leaves the journal: a third open starts clean.
	c2.Close()
	c3 := openTestCoordinator(t, clk, cfg)
	if rec := c3.Recovered(); len(rec) != 0 {
		t.Fatalf("collected job recovered again: %+v", rec)
	}
}

// TestGracefulResumeFromSnapshot is the SIGTERM variant: Close writes
// the snapshot, a reopened coordinator resumes from it, and a lease
// whose TTL lapsed across the restart is reaped into a requeue with
// its attempt counter intact.
func TestGracefulResumeFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")

	pts := testPoints(8)
	done := submitJob(c1, "", "sw-9", pts)
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("lease 2: %v %v", g2, err)
	}
	c1.Close()
	if err := c1.Cache().Close(); err != nil {
		t.Fatal(err)
	}
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("closed waiter: %v", r.err)
	}
	// Graceful shutdown compacted: recovery reads the snapshot alone.
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("wal after graceful close: %v size=%d", err, fi.Size())
	}

	// The restart takes longer than the lease TTL: the restored lease
	// expires and the shard requeues as attempt 2 for a new fleet.
	clk.advance(2 * time.Minute)
	c2 := openTestCoordinator(t, clk, cfg)
	if rec := c2.Recovered(); len(rec) != 1 || rec[0].Label != "sw-9" {
		t.Fatalf("recovered: %+v", rec)
	}
	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-9", nil)
		resumed <- runResult{res, err}
	}()
	w2, _ := c2.RegisterWorker("w2")
	g3, err := c2.LeaseShard(w2.WorkerID)
	if err != nil || g3 == nil {
		t.Fatalf("post-restart lease: %v %v", g3, err)
	}
	if g3.ShardID != g2.ShardID || g3.Attempt != 2 {
		t.Fatalf("requeued shard: %+v (pre-crash %+v)", g3, g2)
	}
	completeWithEngine(t, c2, w2.WorkerID, g3)
	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatal("graceful-resume outcomes differ from uninterrupted run")
	}
}

// TestAnonymousJobsDropOnRecovery: unlabeled submissions (explorer
// evaluation rounds) do not resume — but their completed results stay
// in the store, which is what a restarted exploration feeds on.
func TestAnonymousJobsDropOnRecovery(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 2},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")
	done := submitAsync(c1, testPoints(4)) // anonymous
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("lease: %v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	crash(t, c1)
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}

	c2 := openTestCoordinator(t, clk, cfg)
	if rec := c2.Recovered(); len(rec) != 0 {
		t.Fatalf("anonymous job recovered: %+v", rec)
	}
	st := c2.Status()
	if st.PendingShards != 0 || st.ActiveLeases != 0 {
		t.Fatalf("anonymous work survived recovery: %+v", st)
	}
	if n := c2.Cache().Len(); n != len(g1.Items) {
		t.Fatalf("recovered cache holds %d results, want %d", n, len(g1.Items))
	}
}

// TestResumeResimulatesMissingStoreRecord: the journal names results,
// the store holds them. A resolved point whose store record is gone at
// reopen is not invented from the journal — it goes back into a
// pending shard, is simulated again, and the resumed Results still
// equal an uninterrupted direct run byte for byte.
func TestResumeResimulatesMissingStoreRecord(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c1 := openTestCoordinator(t, clk, cfg)
	w1, _ := c1.RegisterWorker("w1")
	pts := testPoints(8)
	done := submitJob(c1, "", "sw-1", pts)
	g1, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g1 == nil || len(g1.Items) != 4 {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c1, w1.WorkerID, g1)
	g2, err := c1.LeaseShard(w1.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("second lease: %+v %v", g2, err)
	}
	crash(t, c1)
	if r := <-done; !errors.Is(r.err, ErrClosed) {
		t.Fatalf("halted waiter: %v", r.err)
	}

	// Lose one completed point's record from the store.
	lost := g1.Items[1].Key
	cache, err := OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	if n, err := cache.GC(func(k string) bool { return k != lost }); err != nil || n != 1 {
		t.Fatalf("dropping %s: removed %d, %v", lost, n, err)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := openTestCoordinator(t, clk, cfg)
	if rec := c2.Recovered(); len(rec) != 1 || rec[0].Done != 3 || rec[0].Total != 8 {
		t.Fatalf("recovered: %+v", rec)
	}
	if st := c2.Status(); st.PendingShards != 1 || st.PendingPoints != 1 || st.ActiveLeases != 1 {
		t.Fatalf("recovered queue: %+v", st)
	}
	resumed := make(chan runResult, 1)
	go func() {
		res, err := c2.ResumeRecovered("sw-1", nil)
		resumed <- runResult{res, err}
	}()
	w2, _ := c2.RegisterWorker("w2")
	g3, err := c2.LeaseShard(w2.WorkerID)
	if err != nil || g3 == nil || len(g3.Items) != 1 || g3.Items[0].Key != lost {
		t.Fatalf("requeued lease: %+v %v", g3, err)
	}
	completeWithEngine(t, c2, w2.WorkerID, g3)
	completeWithEngine(t, c2, w1.WorkerID, g2)

	r := <-resumed
	if r.err != nil {
		t.Fatal(r.err)
	}
	direct, err := (&Engine{Cache: NewCache()}).RunPoints(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(r.res.Outcomes)
	want, _ := json.Marshal(direct.Outcomes)
	if string(got) != string(want) {
		t.Fatalf("resumed outcomes differ from uninterrupted run:\n%s\nvs\n%s", got, want)
	}
	if r.res.Stats.Simulated != 8 || r.res.Stats.Errors != 0 {
		t.Fatalf("resumed stats: %+v", r.res.Stats)
	}
}

// TestJournalCarriesNoResults decodes wal.log and snapshot.json after a
// cold grid and a warm resubmission of it: every done entry is exactly
// {idx, cached, err}, and no result's bytes appear in either file.
func TestJournalCarriesNoResults(t *testing.T) {
	dir := t.TempDir()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	cfg := CoordConfig{LeaseTTL: time.Minute, Planner: ShardPlanner{MaxPoints: 4},
		StateDir: dir}
	c := openTestCoordinator(t, clk, cfg)
	w, _ := c.RegisterWorker("w")
	pts := testPoints(8)
	done := submitJob(c, "", "sw-1", pts)
	g1, err := c.LeaseShard(w.WorkerID)
	if err != nil || g1 == nil {
		t.Fatalf("first lease: %+v %v", g1, err)
	}
	completeWithEngine(t, c, w.WorkerID, g1)
	c.Snapshot() // the half-done job lands in snapshot.json
	g2, err := c.LeaseShard(w.WorkerID)
	if err != nil || g2 == nil {
		t.Fatalf("second lease: %+v %v", g2, err)
	}
	completeWithEngine(t, c, w.WorkerID, g2)
	cold := <-done
	if cold.err != nil {
		t.Fatal(cold.err)
	}
	if warm := <-submitJob(c, "", "sw-2", pts); warm.err != nil || warm.res.Stats.CacheHits != 8 {
		t.Fatalf("warm resubmission: %+v", warm)
	}
	crash(t, c)

	checkEntries := func(file string, entries []map[string]json.RawMessage) {
		t.Helper()
		for _, e := range entries {
			for field := range e {
				if field != "idx" && field != "cached" && field != "err" {
					t.Errorf("%s: done entry carries %q: %v", file, field, e)
				}
			}
		}
	}
	type doneShape struct {
		Entries []map[string]json.RawMessage `json:"entries"`
	}
	wal, recs, err := durable.OpenWAL(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wal.Close()
	walEntries := 0
	for _, rec := range recs {
		if rec.Type != recTypeDone {
			continue
		}
		var d doneShape
		if err := json.Unmarshal(rec.Payload, &d); err != nil {
			t.Fatal(err)
		}
		checkEntries("wal.log", d.Entries)
		walEntries += len(d.Entries)
	}
	var snap struct {
		Jobs []struct {
			Done []map[string]json.RawMessage `json:"done"`
		} `json:"jobs"`
	}
	if ok, err := durable.ReadSnapshot(filepath.Join(dir, "snapshot.json"), &snap); err != nil || !ok {
		t.Fatalf("snapshot: ok=%v %v", ok, err)
	}
	snapEntries := 0
	for _, j := range snap.Jobs {
		checkEntries("snapshot.json", j.Done)
		snapEntries += len(j.Done)
	}
	// Shard two's completion plus the warm job's eight hits follow the
	// snapshot; shard one's completion is inside it.
	if walEntries != 12 || snapEntries != 4 {
		t.Fatalf("done entries: wal %d (want 12), snapshot %d (want 4)", walEntries, snapEntries)
	}

	for _, file := range []string{"wal.log", "snapshot.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range cold.res.Outcomes {
			res, _ := json.Marshal(o.Result)
			if bytes.Contains(blob, res) {
				t.Fatalf("%s holds the result of %s", file, o.Point)
			}
		}
	}
}
