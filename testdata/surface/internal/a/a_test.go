package a

import "testing"

func TestUsedByTest(t *testing.T) {
	if UsedByTest() != 3 {
		t.Fatal("UsedByTest")
	}
}
