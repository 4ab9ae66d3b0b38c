// Fixture for the resource-lifecycle analyzer: built-in registry pairs
// (os.Open/Close, sync.WaitGroup.Add/Done, sync.Mutex.Lock/Unlock) and
// annotation-declared pairs, across the path shapes the analyzer must
// get right — error-path-only leaks, defer releases, transfers into
// stores, loop re-acquisition, and goroutine handoff.
package region

import (
	"errors"
	"os"
	"sync"
)

func work() error { return nil }

// Plain leak: opened, never closed, nil-error return.
func leakPlain() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	_ = f
	return nil // want `file f acquired at .*resource\.go:\d+ is neither released nor transferred`
}

// Error-path-only leak: the success path closes, the mid-function error
// return does not.
func leakErrorPath() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	if err := work(); err != nil {
		return err // want `file f acquired at .*resource\.go:\d+ is neither released nor transferred`
	}
	return f.Close()
}

// Defer release covers every subsequent path: clean.
func deferRelease() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	defer f.Close()
	return work()
}

type holder struct{ f *os.File }

// A store moves ownership somewhere the intraprocedural analysis cannot
// see; without a transfers annotation that is flagged at the store.
func storeUnannotated(h *holder) error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	h.f = f // want `file f moves into a field, map or element store without a dodo:transfers\(file\) annotation`
	return nil
}

// The same store under a transfers annotation is the declared contract:
// silent.
//
// dodo:transfers(file)
func storeAnnotated(h *holder) error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	h.f = f
	return nil
}

// Re-acquiring inside a loop while the previous acquisition is still
// live loses it on the back-edge.
func loopReacquire(paths []string) {
	for _, p := range paths { // want `file f acquired at .*resource\.go:\d+ inside the loop body is still live on the loop back-edge`
		f, err := os.Open(p)
		if err != nil {
			return
		}
		_ = f
	}
}

// Close at the bottom of the loop body balances each iteration: clean.
func loopBalanced(paths []string) {
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return
		}
		f.Close()
	}
}

// WaitGroup count taken, then abandoned on the early error return; the
// nil-error path hands it to a goroutine that Dones it.
func wgErrorLeak(wg *sync.WaitGroup, fn func()) error {
	wg.Add(1)
	if fn == nil {
		return errors.New("nil fn") // want `wg wg acquired at .*resource\.go:\d+ is neither released nor transferred`
	}
	go func() {
		defer wg.Done()
		fn()
	}()
	return nil
}

// Lock held across an error return.
func lockErrorLeak(mu *sync.Mutex, n int) error {
	mu.Lock()
	if n < 0 {
		return errors.New("negative") // want `lock mu acquired at .*resource\.go:\d+ is neither released nor transferred`
	}
	mu.Unlock()
	return nil
}

// Unlock-before-sleep, re-lock after: the debt machinery must not flag
// the re-acquisition inside the loop.
func lockJuggle(mu *sync.Mutex, spins int) {
	mu.Lock()
	for i := 0; i < spins; i++ {
		mu.Unlock()
		work()
		mu.Lock()
	}
	mu.Unlock()
}

// Annotation-declared pair: takeSlot acquires kind "slot", putSlot
// releases it.
//
// dodo:acquires(slot)
func takeSlot() int { return 1 }

// dodo:releases(slot)
func putSlot(s int) { _ = s }

// The slot leaks only on the error path.
func slotErrorLeak(fail bool) error {
	s := takeSlot()
	if fail {
		return errors.New("boom") // want `slot s acquired at .*resource\.go:\d+ is neither released nor transferred`
	}
	putSlot(s)
	return nil
}

// Balanced slot use: clean.
func slotBalanced() {
	s := takeSlot()
	putSlot(s)
}

// A malformed directive must be reported, not silently ignored.
//
// dodo:acquires() — empty kind list. // want `malformed lifecycle directive`
func malformedDirective() {}

// A misspelt verb is reported wherever it sits: read as prose, it would
// leave takeSpare unannotated and every caller's leak invisible.
//
// dodo:aquires(slot) // want `unknown directive "dodo:aquires"`
func takeSpare() int { return 2 }

func keep(f *os.File) error { _ = f; return nil }

// A resource passed to a call in a return expression is not returned:
// the callee takes it by its own effects, and keep takes nothing.
func returnThroughCall() error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	return keep(f) // want `file f acquired at .*resource\.go:\d+ is neither released nor transferred on this return`
}

// append hands what it appends to the caller with the slice: clean.
func returnAppended(fs []*os.File) ([]*os.File, error) {
	f, err := os.Open("x")
	if err != nil {
		return fs, err
	}
	return append(fs, f), nil
}

type closer struct{}

// done releases its parameter. Parameters are numbered as a call's
// arguments are, without the receiver.
func (c *closer) done(f *os.File) { _ = f.Close() }

// The call discharges f through done's inferred release: clean.
func releaseThroughMethod(c *closer) error {
	f, err := os.Open("x")
	if err != nil {
		return err
	}
	c.done(f)
	return nil
}
