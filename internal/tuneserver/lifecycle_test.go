package tuneserver

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"aedbmls/internal/faultinject"
)

// waitDone fails the test if st does not reach a terminal status in time.
func waitDone(t *testing.T, st *Study) StudyStatus {
	t.Helper()
	select {
	case <-st.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("study %s stuck in %s", st.Name(), st.Status().Status)
	}
	return st.Status()
}

// TestServerCloseReleasesGoroutines: a study runs on its trial workers
// alone, so once Server.Close returns, no study — finished, running or
// paused — still holds a goroutine.
func TestServerCloseReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	s, err := New(Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	finished, err := s.Create(strings.NewReader(tinySpec("finished", "")))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, finished).Status; got != StatusDone {
		t.Fatalf("finished study ended %s", got)
	}
	running, err := s.Create(strings.NewReader(`{"name":"running","algorithm":"nsga2","density":100,
	 "seed":5,"trials":10000,"committee":2,"pop_size":8,"evaluations":32}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(strings.NewReader(tinySpec("paused", `,"start_paused":true`))); err != nil {
		t.Fatal(err)
	}
	if got := running.Status().Status; got != StatusRunning {
		t.Fatalf("long study is %s before Close, want running", got)
	}

	s.Close()
	if got := running.Status().Status; got != StatusInterrupted {
		t.Fatalf("running study closed to %s, want interrupted", got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStudyFailsOnCheckpointError: a checkpoint save that errors ends
// the study failed, with the error naming the checkpoint, and Close
// still returns.
func TestStudyFailsOnCheckpointError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure("site=study.save,kind=error,after=1,times=1"); err != nil {
		t.Fatal(err)
	}
	s, err := New(Options{Dir: t.TempDir(), Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Create(strings.NewReader(tinySpec("f", "")))
	if err != nil {
		t.Fatal(err)
	}
	status := waitDone(t, st)
	if status.Status != StatusFailed || !strings.Contains(status.Error, "checkpoint") {
		t.Fatalf("study ended %s with error %q, want failed naming the checkpoint", status.Status, status.Error)
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return after a failed study")
	}
}

// TestCloseInterruptsAndRestartResumes: closing the server mid-study
// records the study interrupted, and a new server on the same directory
// resumes it to the 1-worker golden front.
func TestCloseInterruptsAndRestartResumes(t *testing.T) {
	spec := tinySpec("i", "")
	goldenFront, _ := runStudy(t, spec, 1)

	// With one worker, the merge of trial 0 holds the study in its first
	// checkpoint save for the armed delay, so Close lands after that
	// boundary and before the study's last.
	t.Cleanup(faultinject.Reset)
	if err := faultinject.Configure("site=study.save,kind=delay,delay=500ms,after=1,times=1"); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Create(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for faultinject.Hits(faultinject.SiteStudySave) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the study never reached its first checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	status := st.Status()
	if status.Status != StatusInterrupted || status.Merged < 1 || status.Merged >= status.Trials {
		t.Fatalf("closed study is %s at %d/%d merged, want interrupted between boundaries",
			status.Status, status.Merged, status.Trials)
	}
	faultinject.Reset()

	s2, err := New(Options{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	resumed, err := s2.Get("i")
	if err != nil {
		t.Fatal(err)
	}
	if status := waitDone(t, resumed); status.Status != StatusDone {
		t.Fatalf("resumed study ended %s (error %q), want done", status.Status, status.Error)
	}
	if got, want := hexFront(resumed.Front()), hexFront(goldenFront); got != want {
		t.Errorf("resumed front differs from the 1-worker golden run\ngolden:\n%s\nresumed:\n%s", want, got)
	}
}
