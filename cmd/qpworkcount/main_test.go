package main

import "testing"

// TestReplayDeterministic checks the property the command rests on: a
// replay of the same seed and count does the same work and emits the
// same streams every time.
func TestReplayDeterministic(t *testing.T) {
	a, err := replay(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replay(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replays differ: %+v vs %+v", a, b)
	}
	if a.sessions != 8 || a.evals == 0 || a.dominanceTests == 0 || a.refinements == 0 {
		t.Fatalf("replay did no work: %+v", a)
	}
}

// TestReplayMediateDeterministic is the same property for mediate
// sessions: equal accounting and equal answer streams on every replay.
func TestReplayMediateDeterministic(t *testing.T) {
	a, err := replayMediate(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayMediate(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("replays differ: %+v vs %+v", a, b)
	}
	if a.sessions != 8 || a.accesses == 0 || a.cacheHits == 0 || a.cost == 0 {
		t.Fatalf("replay did no work: %+v", a)
	}
}
