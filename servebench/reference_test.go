package main

import "testing"

// The reference service answers with its document, a speed reading is
// a positive share of the nominal rate, and close stops the service.
func TestReferenceSpeed(t *testing.T) {
	ref, err := startReference(2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := ref.speed(2)
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
		t.Fatalf("speed %g, want > 0", s)
	}
	if err := ref.close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.speed(1); err == nil {
		t.Fatal("speed read from a closed reference")
	}
}
