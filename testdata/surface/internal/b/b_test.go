package b

import (
	"testing"

	"fixture/internal/a"
)

func TestUsesOracle(t *testing.T) {
	if a.Oracle() != 7 {
		t.Fatal("oracle")
	}
}
