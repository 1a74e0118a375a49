package parallel

import "testing"

func TestWorkers(t *testing.T) {
	if Workers(3) != 3 {
		t.Error("explicit worker count ignored")
	}
	if Workers(0) < 1 {
		t.Error("default workers < 1")
	}
}
