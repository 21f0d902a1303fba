//go:build checked

package check

import (
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and returns the panic message, failing the test if f
// returns normally.
func mustPanic(t *testing.T, f func()) string {
	t.Helper()
	defer func() { recover() }()
	var msg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				msg = r.(string)
			}
		}()
		f()
	}()
	if msg == "" {
		t.Fatal("expected a panic")
	}
	return msg
}

func TestEnabledPanics(t *testing.T) {
	if !Enabled || !Replay {
		t.Fatal("Enabled and Replay must both be true under the checked tag")
	}

	msg := mustPanic(t, func() {
		Finite("hf.gradient", []float32{1, float32(math.NaN()), 2})
	})
	for _, want := range []string{"hf.gradient", "[1]", "len 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Finite panic %q missing %q", msg, want)
		}
	}

	msg = mustPanic(t, func() { FiniteScalar("core.loss", math.Inf(-1)) })
	if !strings.Contains(msg, "core.loss") {
		t.Errorf("FiniteScalar panic %q missing instrument name", msg)
	}

	msg = mustPanic(t, func() { Dims("hf.direction", 4, 9) })
	for _, want := range []string{"hf.direction", "4", "9"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Dims panic %q missing %q", msg, want)
		}
	}
}

func TestEnabledAcceptsValidInputs(t *testing.T) {
	Finite("ok", []float32{0, -1, 2.5})
	FiniteScalar("ok", 1e300)
	Dims("ok", 5, 5)
}
