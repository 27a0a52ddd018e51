// Package fixture seeds violations of the reservepair invariant: every
// Reserve result checked, every successful reserve paired with a
// Release on its success path.
//
//amsvet:importpath ams/internal/fixture
package fixture

import "errors"

var errBudget = errors.New("over budget")

type acct struct{ used float64 }

func (a *acct) Reserve(mb float64) bool { a.used += mb; return true }
func (a *acct) Release(mb float64)      { a.used -= mb }

// Grant is the ordered-line claim: fn runs once mb is claimed and owns
// the release.
func (a *acct) Grant(mb float64, fn func()) bool { a.used += mb; fn(); return true }

func work() bool { return true }

// --- seeded violations ---

func discarded(a *acct) {
	a.Reserve(5) // want "result of Reserve is discarded"
}

func blankAssigned(a *acct) {
	_ = a.Reserve(5) // want "result of Reserve is assigned to _"
}

func storedButNeverChecked(a *acct) {
	granted := a.Reserve(5) // want "result of Reserve is stored in granted but never checked"
	_ = granted
}

func leakyEarlyReturn(a *acct) error {
	if !a.Reserve(5) { // want "successful Reserve can return without Release"
		return errBudget
	}
	if !work() {
		return errBudget // the reservation is still held here
	}
	a.Release(5)
	return nil
}

func neverReleased(a *acct) {
	if a.Reserve(5) { // want "successful Reserve never reaches a Release"
		work()
	}
}

func initGuardLeak(a *acct) {
	if ok := a.Reserve(5); ok { // want "successful Reserve never reaches a Release"
		work()
	}
}

func grantDiscarded(a *acct) {
	a.Grant(5, func() { a.Release(5) }) // want "result of Grant is discarded"
}

func grantDeferred(a *acct) {
	defer a.Grant(5, func() { a.Release(5) }) // want "result of Grant is discarded by go/defer"
}

func grantStoredButNeverChecked(a *acct) {
	queued := a.Grant(5, func() {}) // want "result of Grant is stored in queued but never checked"
	_ = queued
}

// --- sanctioned shapes: no diagnostics ---

// grantChecked: a checked grant needs no Release in its own function —
// the release is in the completion the callback arms.
func grantChecked(a *acct, onGrant func()) {
	if !a.Grant(5, onGrant) {
		panic("over budget: policies only select models that fit")
	}
}

// Grant forwards the result, like a forwarding Reserve.
func (w *wrapped) Grant(mb float64, fn func()) bool { return w.a.Grant(mb, fn) }

// mustReserve is the panic-on-refusal wrapper; its callers release.
func mustReserve(a *acct) {
	if !a.Reserve(5) {
		panic("over budget: policies only select models that fit")
	}
}

// Reserve forwards the result, and with it the release obligation.
type wrapped struct{ a *acct }

func (w *wrapped) Reserve(mb float64) bool { return w.a.Reserve(mb) }

func pairedInBranch(a *acct) {
	if a.Reserve(5) {
		work()
		a.Release(5)
	}
}

func pairedByDefer(a *acct) error {
	if !a.Reserve(5) {
		return errBudget
	}
	defer a.Release(5)
	if !work() {
		return errBudget // covered by the defer
	}
	return nil
}

func pairedAcrossGuard(a *acct) {
	granted := a.Reserve(5)
	if !granted {
		return
	}
	work()
	a.Release(5)
}

func conditionalPairing(a *acct, reservedMB float64) {
	// The reserve and the release share a flow-sensitive guard the
	// analyzer cannot correlate; the optimistic join accepts the branch
	// release.
	if reservedMB > 0 {
		if !a.Reserve(reservedMB) {
			panic("over budget")
		}
	}
	work()
	if reservedMB > 0 {
		a.Release(reservedMB)
	}
}

func asyncRelease(a *acct) {
	if a.Reserve(5) {
		go func() {
			work()
			a.Release(5)
		}()
	}
}

func escapeHatch(a *acct) {
	//amsvet:allow reservepair fixture exercising the reasoned escape hatch
	a.Reserve(5)
}
