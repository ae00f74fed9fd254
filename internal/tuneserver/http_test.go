package tuneserver

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"aedbmls/internal/study"
)

// tinySpec is a fast-but-real MLS study used across the contract tests.
func tinySpec(name string, extra string) string {
	return fmt.Sprintf(`{"name":"%s","algorithm":"mls","density":100,"seed":3,"trials":3,"committee":2,
	 "populations":1,"pop_workers":2,"evals_per_worker":6,"reset_period":4%s}`, name, extra)
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })
	return s, hs
}

func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := map[string]any{}
	json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out
}

func waitStatus(t *testing.T, url, want string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := doJSON(t, "GET", url, "")
		if code != http.StatusOK {
			t.Fatalf("GET %s: %d", url, code)
		}
		if body["status"] == want {
			return body
		}
		if time.Now().After(deadline) {
			t.Fatalf("study stuck in %v waiting for %s", body["status"], want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAPIRejectsBadSpecs: every malformed spec is a 4xx and writes no
// state — the study list stays empty and the checkpoint dir untouched.
func TestAPIRejectsBadSpecs(t *testing.T) {
	dir := t.TempDir()
	_, hs := newTestServer(t, Options{Dir: dir, Workers: 1})
	bad := []string{
		`{not json`,
		`{"algorithm":"mls"}`,                                            // no name
		`{"name":"x","algorithm":"spea2"}`,                               // unknown algorithm
		`{"name":"x"}`,                                                   // missing algorithm
		`{"name":"../evil","algorithm":"mls"}`,                           // path traversal
		`{"name":"a/b","algorithm":"mls"}`,                               // path separator
		`{"name":".hidden","algorithm":"mls"}`,                           // dotfile
		`{"name":"x","algorithm":"mls","bogus_knob":1}`,                  // unknown field
		`{"name":"x","algorithm":"mls","pop_size":8}`,                    // NSGA knob on MLS
		`{"name":"x","algorithm":"nsga2","populations":2}`,               // MLS knob on NSGA
		`{"name":"x","algorithm":"nsga2","pop_size":7}`,                  // odd population
		`{"name":"x","algorithm":"nsga2","pop_size":8,"evaluations":4}`,  // budget < pop
		`{"name":"x","algorithm":"mls","trials":-1}`,                     // negative trials
		`{"name":"x","algorithm":"mls","committee":65}`,                  // committee over cap
		`{"name":"x","algorithm":"mls","density":100000}`,                // density out of range
		`{"name":"x","algorithm":"mls"}{"name":"y","algorithm":"nsga2"}`, // trailing data
		`{"name":"` + strings.Repeat("x", 65) + `","algorithm":"mls"}`,   // name too long
	}
	for _, spec := range bad {
		code, body := doJSON(t, "POST", hs.URL+"/studies", spec)
		if code < 400 || code >= 500 {
			t.Errorf("spec %q: status %d (%v), want 4xx", spec, code, body)
		}
	}
	code, _ := doJSON(t, "GET", hs.URL+"/studies", "")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list []any
	resp, err := http.Get(hs.URL + "/studies")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list) != 0 {
		t.Fatalf("refused specs created %d studies", len(list))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != study.ManifestFile {
			t.Fatalf("refused specs wrote %q to the checkpoint dir", e.Name())
		}
	}
	m, err := study.LoadManifest(study.ManifestPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Studies) != 0 {
		t.Fatalf("refused specs registered %d manifest entries", len(m.Studies))
	}
}

// TestAPIDuplicateRefused: a second study with the same name is a 409
// and does not disturb the first.
func TestAPIDuplicateRefused(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	if code, body := doJSON(t, "POST", hs.URL+"/studies", tinySpec("dup", `,"start_paused":true`)); code != http.StatusCreated {
		t.Fatalf("first create: %d %v", code, body)
	}
	if code, _ := doJSON(t, "POST", hs.URL+"/studies", tinySpec("dup", "")); code != http.StatusConflict {
		t.Fatalf("duplicate create: %d, want 409", code)
	}
	code, body := doJSON(t, "GET", hs.URL+"/studies/dup", "")
	if code != http.StatusOK || body["status"] != StatusPaused {
		t.Fatalf("original study disturbed: %d %v", code, body)
	}
}

// TestAPIPauseResumeRoundTrip: pause holds dispatch with counters
// intact; resume finishes the study with the same front as a never-
// paused golden run.
func TestAPIPauseResumeRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-trial study; skipped in -short")
	}
	goldenFront, _ := runStudy(t, tinySpec("golden", ""), 2)
	golden := hexFront(goldenFront)

	_, hs := newTestServer(t, Options{Workers: 2})
	if code, body := doJSON(t, "POST", hs.URL+"/studies", tinySpec("golden", `,"start_paused":true`)); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	url := hs.URL + "/studies/golden"

	// Paused at creation: nothing dispatched, nothing merged.
	body := waitStatus(t, url, StatusPaused)
	if body["merged"].(float64) != 0 {
		t.Fatalf("paused study merged %v trials", body["merged"])
	}
	if code, _ := doJSON(t, "POST", url+"/pause", ""); code != http.StatusConflict {
		t.Fatalf("pause while paused: %d, want 409", code)
	}

	// Resume, let at least one trial complete, pause again: the merged
	// counter survives the round trip. A fast study may race to done
	// before the second pause lands — both interleavings are legal and
	// both must end on the golden front.
	if code, _ := doJSON(t, "POST", url+"/resume", ""); code != http.StatusOK {
		t.Fatalf("resume: %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	var merged float64
	for {
		_, b := doJSON(t, "GET", url, "")
		merged = b["merged"].(float64)
		if merged >= 1 || b["status"] == StatusDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no trial merged in time: %v", b)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := doJSON(t, "POST", url+"/pause", ""); code == http.StatusOK {
		_, b := doJSON(t, "GET", url, "")
		if got := b["merged"].(float64); got < merged {
			t.Fatalf("merged counter went backwards across pause: %v -> %v", merged, got)
		}
		if code, _ := doJSON(t, "POST", url+"/resume", ""); code != http.StatusOK {
			// Legal only if the pre-pause trials drove the study to done.
			if _, b := doJSON(t, "GET", url, ""); b["status"] != StatusDone {
				t.Fatalf("resume after pause: %d, study %v", code, b["status"])
			}
		}
	}

	final := waitStatus(t, url, StatusDone)
	if final["merged"].(float64) != 3 {
		t.Fatalf("done study merged %v trials, want all 3", final["merged"])
	}
	if got := fetchFront(t, url+"/front"); got != golden {
		t.Errorf("front after pause/resume differs from unpaused golden run\ngolden:\n%s\ngot:\n%s", golden, got)
	}
}

// fetchFront reads the NDJSON front stream and re-renders it in the
// bit-exact hex format.
func fetchFront(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	var sols []study.Solution
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var s study.Solution
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("front line %q: %v", sc.Text(), err)
		}
		sols = append(sols, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	decoded, err := study.DecodeSolutions(sols, len(sols[0].X), len(sols[0].F))
	if err != nil {
		t.Fatal(err)
	}
	return hexFront(decoded)
}

// TestAPIStopBoundary: stop answers with the last completed merge
// boundary, the study lands in "stopped", and later pause/resume/stop
// are 409s.
func TestAPIStopBoundary(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	if code, body := doJSON(t, "POST", hs.URL+"/studies", tinySpec("s", `,"start_paused":true`)); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	url := hs.URL + "/studies/s"
	code, body := doJSON(t, "POST", url+"/stop", "")
	if code != http.StatusOK {
		t.Fatalf("stop: %d %v", code, body)
	}
	merged, ok := body["merged"].(float64)
	if !ok {
		t.Fatalf("stop reply has no merged boundary: %v", body)
	}
	st := waitStatus(t, url, StatusStopped)
	if st["merged"].(float64) != merged {
		t.Fatalf("stop reported boundary %v, status says %v", merged, st["merged"])
	}
	for _, action := range []string{"pause", "resume", "stop"} {
		if code, _ := doJSON(t, "POST", url+"/"+action, ""); code != http.StatusConflict {
			t.Errorf("%s on stopped study: %d, want 409", action, code)
		}
	}
}

// TestAPINotFound: every per-study endpoint 404s on unknown names.
func TestAPINotFound(t *testing.T) {
	_, hs := newTestServer(t, Options{Workers: 1})
	for _, req := range [][2]string{
		{"GET", "/studies/ghost"},
		{"GET", "/studies/ghost/front"},
		{"POST", "/studies/ghost/pause"},
		{"POST", "/studies/ghost/resume"},
		{"POST", "/studies/ghost/stop"},
	} {
		if code, _ := doJSON(t, req[0], hs.URL+req[1], ""); code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", req[0], req[1], code)
		}
	}
}

// TestAPIHealthz: the health endpoint surfaces per-study eval counters
// once a study has evaluated something.
func TestAPIHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a study; skipped in -short")
	}
	_, hs := newTestServer(t, Options{Workers: 1})
	if code, body := doJSON(t, "POST", hs.URL+"/studies", tinySpec("h", "")); code != http.StatusCreated {
		t.Fatalf("create: %d %v", code, body)
	}
	waitStatus(t, hs.URL+"/studies/h", StatusDone)
	code, body := doJSON(t, "GET", hs.URL+"/healthz", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	studies, ok := body["studies"].(map[string]any)
	if !ok || studies["h"] == nil {
		t.Fatalf("healthz missing study h: %v", body)
	}
	totals := body["totals"].(map[string]any)
	if totals["full_evals"].(float64) <= 0 {
		t.Fatalf("healthz totals report no full evaluations: %v", totals)
	}
}

// TestServeDropsSlowHeader: a client that sends half a request header and
// then goes quiet is disconnected at the header timeout instead of holding
// its connection (and goroutine) forever, while a well-formed request on
// the same server is still served.
func TestServeDropsSlowHeader(t *testing.T) {
	defer func(saved struct{ header, read, idle time.Duration }) { connTimeouts = saved }(connTimeouts)
	connTimeouts.header = 100 * time.Millisecond

	stop := make(chan struct{})
	addrs := make(chan net.Addr, 1)
	served := make(chan error, 1)
	go func() {
		served <- Serve("127.0.0.1:0", Options{Workers: 1}, stop, func(a net.Addr) { addrs <- a })
	}()
	addr := (<-addrs).String()
	defer func() {
		close(stop)
		if err := <-served; err != nil {
			t.Error(err)
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: aedb\r\n"); err != nil {
		t.Fatal(err)
	}
	// Well past the header timeout, but a bounded wait: a server without
	// one would leave this read blocked until the deadline.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	start := time.Now()
	_, err = io.Copy(io.Discard, conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("half-sent header still connected after %v", time.Since(start))
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the dropped client: %s", resp.Status)
	}
}
