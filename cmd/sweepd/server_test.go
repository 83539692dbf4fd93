package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"earlyrelease/internal/experiments"
	"earlyrelease/internal/release"
	"earlyrelease/internal/sweep"
	"earlyrelease/internal/workloads"
)

const testScale = 20_000

func newTestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := NewServer(sweep.NewCache(), 0)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func postGrid(t *testing.T, ts *httptest.Server, g sweep.Grid) string {
	t.Helper()
	body, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweep: status %d", resp.StatusCode)
	}
	var out struct{ ID string }
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" {
		t.Fatal("empty sweep id")
	}
	return out.ID
}

// pollDeadline bounds a poll for a job's completion by the test
// binary's -timeout rather than a fixed wall-clock cap: a 192-point
// grid under -race on a busy 2-core host can take longer than any cap
// that is honest on a fast one. A hung job still fails, at the
// timeout. Without a -timeout the poll waits as long as it takes.
func pollDeadline(t *testing.T) time.Time {
	if d, ok := t.Deadline(); ok {
		return d
	}
	return time.Now().Add(24 * time.Hour)
}

func pollDone(t *testing.T, ts *httptest.Server, id string) *sweepJob {
	t.Helper()
	deadline := pollDeadline(t)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/sweep/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job sweepJob
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if job.State == "done" {
			return &job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("sweep did not finish in time")
	return nil
}

// TestSubmitPollResults is the end-to-end acceptance path: a grid
// submitted over HTTP, polled to completion, must yield results
// byte-identical to direct experiments calls.
func TestSubmitPollResults(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{
		Workloads: []string{"tomcatv"},
		Policies:  []string{"conv", "extended"},
		IntRegs:   []int{48},
		Scale:     testScale,
	}
	job := pollDone(t, ts, postGrid(t, ts, g))
	if job.Err != "" {
		t.Fatalf("sweep failed: %s", job.Err)
	}
	if job.Results == nil || len(job.Results.Outcomes) != 2 {
		t.Fatalf("results: %+v", job.Results)
	}
	if job.Progress.Done != 2 || job.Progress.Total != 2 {
		t.Errorf("final progress: %+v", job.Progress)
	}

	w, err := workloads.ByName("tomcatv")
	if err != nil {
		t.Fatal(err)
	}
	opt := experiments.Options{Scale: testScale}
	for _, o := range job.Results.Outcomes {
		kind, err := release.ParseKind(o.Point.Policy)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := experiments.Run(w, kind, 48, 48, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Result, direct) {
			t.Errorf("%s: HTTP result differs from direct run\n http: %+v\ndirect: %+v",
				o.Point, o.Result, direct)
		}
		// Byte-identical through the wire format too.
		httpJSON, err := json.Marshal(o.Result)
		if err != nil {
			t.Fatal(err)
		}
		directJSON, err := json.Marshal(direct)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(httpJSON, directJSON) {
			t.Errorf("%s: serialized results differ\n http: %s\ndirect: %s",
				o.Point, httpJSON, directJSON)
		}
	}
}

// TestMachineAxisGridOverHTTP submits a machine-model axis sweep and
// checks the results equal a direct engine run point for point — the
// service serves the generalized experiment space identically.
func TestMachineAxisGridOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{
		Workloads:   []string{"go"},
		Policies:    []string{"extended"},
		ROSSizes:    []int{32, 0},
		LSQSizes:    []int{16, 0},
		BPredBits:   []int{10, 0},
		IssueWidths: []int{4, 0},
		Scale:       testScale,
	}
	job := pollDone(t, ts, postGrid(t, ts, g))
	if job.Err != "" {
		t.Fatalf("sweep failed: %s", job.Err)
	}
	if len(job.Results.Outcomes) != 16 {
		t.Fatalf("%d outcomes, want 16", len(job.Results.Outcomes))
	}
	direct, err := (&sweep.Engine{Cache: sweep.NewCache()}).Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range job.Results.Outcomes {
		want := direct.Result(o.Point)
		if o.Err != "" || want == nil || !reflect.DeepEqual(o.Result, want) {
			t.Errorf("%s: HTTP result differs from direct engine run", o.Point)
		}
	}
	// The axes must have produced distinct machines, not aliases.
	base := sweep.Point{Workload: "go", Policy: "extended", IntRegs: 48, FPRegs: 48, Scale: testScale}
	small := base
	small.ROSSize, small.LSQSize, small.BPredBits, small.IssueWidth = 32, 16, 10, 4
	if a, b := job.Results.Result(base), job.Results.Result(small); a == nil || b == nil || a.IPC <= b.IPC {
		t.Errorf("shrunken machine not slower: table2 %+v vs %+v", a, b)
	}
}

// TestAxesEndpoint checks the axis schema discovery route: every
// machine axis plus the two register-file dimensions, each carrying
// its Table 2 baseline and the explorer's default bounds so remote
// clients can build a search.Space without hardcoding.
func TestAxesEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/axes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var axes []struct {
		Name          string `json:"name"`
		Doc           string `json:"doc"`
		Baseline      int    `json:"baseline"`
		Field         string `json:"field"`
		ExploreValues []int  `json:"explore_values"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&axes); err != nil {
		t.Fatal(err)
	}
	if want := len(sweep.MachineAxes()) + 2; len(axes) != want {
		t.Fatalf("%d axes served, want %d (machine axes + int/fp regs)", len(axes), want)
	}
	fields := map[string]bool{}
	for _, ax := range axes {
		if ax.Name == "" || ax.Doc == "" || ax.Baseline <= 0 || ax.Field == "" {
			t.Errorf("incomplete axis schema: %+v", ax)
		}
		if len(ax.ExploreValues) < 2 {
			t.Errorf("axis %s: no explorer bounds: %+v", ax.Name, ax)
		}
		if fields[ax.Field] {
			t.Errorf("duplicate grid field %q", ax.Field)
		}
		fields[ax.Field] = true
	}
	for _, name := range []string{"int_regs", "fp_regs"} {
		if !fields[name] {
			t.Errorf("register dimension %q missing from /axes", name)
		}
	}
	// Machine-axis bounds must contain the baseline (the explorer's
	// hill-climb starts there).
	for _, ax := range axes[:len(sweep.MachineAxes())] {
		found := false
		for _, v := range ax.ExploreValues {
			if v == ax.Baseline {
				found = true
			}
		}
		if !found {
			t.Errorf("axis %s: baseline %d not in explorer bounds %v", ax.Name, ax.Baseline, ax.ExploreValues)
		}
	}
	// The advertised fields round-trip: a grid JSON using each field
	// name is accepted by POST /sweep.
	for _, ax := range axes {
		body := fmt.Sprintf(`{"workloads":["nope"],"policies":["conv"],%q:[1]}`, ax.Field)
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Errorf("axis field %q rejected by POST /sweep: %d", ax.Field, resp.StatusCode)
		}
	}
}

// TestConcurrentClientsShareCache submits the same grid from two
// clients; the second sweep must be served from the shared cache with
// identical results.
func TestConcurrentClientsShareCache(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"basic"},
		IntRegs: []int{40, 48}, Scale: testScale}
	first := pollDone(t, ts, postGrid(t, ts, g))
	second := pollDone(t, ts, postGrid(t, ts, g))
	if second.Results.Stats.CacheHits != second.Results.Stats.Points {
		t.Errorf("second client not fully cached: %+v", second.Results.Stats)
	}
	for i, o := range second.Results.Outcomes {
		if !reflect.DeepEqual(o.Result, first.Results.Outcomes[i].Result) {
			t.Errorf("%s: cached result drifted between clients", o.Point)
		}
	}

	var cs sweep.CacheStats
	resp, err := http.Get(ts.URL + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&cs); err != nil {
		t.Fatal(err)
	}
	if cs.Entries != 2 || cs.Hits < 2 {
		t.Errorf("cache stats: %+v", cs)
	}
}

// TestStreamProgress reads the NDJSON stream to completion.
func TestStreamProgress(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"go"}, Policies: []string{"conv", "basic", "extended"},
		IntRegs: []int{48}, Scale: testScale}
	id := postGrid(t, ts, g)
	resp, err := http.Get(ts.URL + "/sweep/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var lines []struct {
		State    string         `json:"state"`
		Progress sweep.Progress `json:"progress"`
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l struct {
			State    string         `json:"state"`
			Progress sweep.Progress `json:"progress"`
		}
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1]
	if last.State != "done" || last.Progress.Done != 3 {
		t.Errorf("final stream line: %+v", last)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].Progress.Done < lines[i-1].Progress.Done {
			t.Errorf("progress went backwards: %+v -> %+v", lines[i-1], lines[i])
		}
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)

	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed grid: status %d", resp.StatusCode)
	}

	resp, err = http.Post(ts.URL+"/sweep", "application/json",
		strings.NewReader(`{"wrklds":["tomcatv"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d", resp.StatusCode)
	}

	for _, path := range []string{"/sweep/sw-999", "/sweep/sw-999/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestJobRetention submits more sweeps than the server retains and
// checks that finished jobs are evicted oldest-first while the newest
// remain addressable.
func TestJobRetention(t *testing.T) {
	ts, _ := newTestServer(t)
	// Error-only grids finish in microseconds: ideal filler jobs.
	g := sweep.Grid{Workloads: []string{"nope"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
	total := maxRetainedSweeps + 12
	var lastID string
	for i := 0; i < total; i++ {
		lastID = postGrid(t, ts, g)
	}
	pollDone(t, ts, lastID)

	// Wait for every submitted sweep to finish, then submit one more to
	// trigger a final eviction pass.
	deadline := time.Now().Add(time.Minute)
	for {
		var items []struct {
			State string `json:"state"`
		}
		resp, err := http.Get(ts.URL + "/sweeps")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&items)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		running := 0
		for _, it := range items {
			if it.State != "done" {
				running++
			}
		}
		if running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d sweeps still running", running)
		}
		time.Sleep(10 * time.Millisecond)
	}
	pollDone(t, ts, postGrid(t, ts, g))

	resp, err := http.Get(ts.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var items []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&items); err != nil {
		t.Fatal(err)
	}
	if len(items) > maxRetainedSweeps {
		t.Errorf("%d jobs retained, cap is %d", len(items), maxRetainedSweeps)
	}
	// The newest job survives; the oldest was evicted (404).
	if items[len(items)-1].ID != fmt.Sprintf("sw-%d", total+1) {
		t.Errorf("newest job missing from list: %+v", items[len(items)-1])
	}
	resp2, err := http.Get(ts.URL + "/sweep/sw-1")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job not evicted: status %d", resp2.StatusCode)
	}
}

// TestUnknownWorkloadSurfacesInOutcome mirrors the engine's error-path
// contract at the HTTP layer.
func TestUnknownWorkloadSurfacesInOutcome(t *testing.T) {
	ts, _ := newTestServer(t)
	g := sweep.Grid{Workloads: []string{"nope"}, Policies: []string{"conv"},
		IntRegs: []int{48}, Scale: testScale}
	job := pollDone(t, ts, postGrid(t, ts, g))
	if len(job.Results.Outcomes) != 1 {
		t.Fatalf("outcomes: %+v", job.Results.Outcomes)
	}
	if o := job.Results.Outcomes[0]; o.Err == "" || o.Result != nil {
		t.Errorf("bad workload outcome over HTTP: %+v", o)
	}
	if job.Results.Stats.Errors != 1 {
		t.Errorf("stats: %+v", job.Results.Stats)
	}
}
