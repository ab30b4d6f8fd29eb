package execsim

import (
	"testing"

	"qporder/internal/schema"
)

// TestAnswerSetHashCollision fakes a hash collision: b's hash key is made
// to point at a, so b must move on to its next probe key and both atoms
// stay distinct members.
func TestAnswerSetHashCollision(t *testing.T) {
	s := NewAnswerSet()
	a, b := groundAtom("p", "a"), groundAtom("p", "b")
	s.Add([]schema.Atom{a})
	keyB, held := s.find(b)
	if held {
		t.Fatal("b held before it was added")
	}
	s.index[keyB] = 0 // b's hash now leads to a
	if got := s.Add([]schema.Atom{b, b}); got != 1 {
		t.Fatalf("Add(b, b) = %d fresh, want 1", got)
	}
	if !s.Contains(a) || !s.Contains(b) || s.Len() != 2 {
		t.Fatalf("after the collision: Contains(a)=%v Contains(b)=%v Len=%d", s.Contains(a), s.Contains(b), s.Len())
	}
	if s.Contains(groundAtom("p", "c")) {
		t.Fatal("Contains reports an atom never added")
	}
}
