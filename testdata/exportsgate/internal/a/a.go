// Package a holds one case per finding the exports gate must or must
// not report; cmd/fixture is its only user.
package a

// Used is used, and so is its Run.
type Used struct{}

// Run is called by the command.
func (Used) Run() {}

// Dead is used as a value, but nothing calls its Run: rule 1 reports
// Dead.Run, which a match by name would take for Used.Run.
type Dead struct{}

// Run is called by no one.
func (Dead) Run() {}

// Stepper is an interface whose Step Drive calls.
type Stepper interface{ Step() }

// Drive calls Step through the interface.
func Drive(s Stepper) { s.Step() }

// Impl satisfies Stepper; nothing calls its Step directly, but Drive
// calls it through the interface, so rule 1 does not report it.
type Impl struct{}

// Step is only reached through Stepper.
func (Impl) Step() {}

// Stats is a result struct.
type Stats struct {
	// Count is read by the command.
	Count int
	// Hidden is written and never read: rule 4 reports it.
	Hidden int
	// Bumped is only incremented and added to, which write it without
	// a read: rule 4 reports it.
	Bumped int
	// Wire leaves the process, so rule 4 exempts it.
	Wire int `json:"wire"`
}

// Snapshot leaves the process whole: encoding/json reads Shown, so
// rule 4 does not report it.
type Snapshot struct {
	Shown int
}

// Key is a map key, which reads every field when it is compared, so
// rule 4 reports neither of its fields.
type Key struct {
	Net, Sig string
}

// Mode is a defined type the command compares against.
type Mode int

const (
	// Fast is assigned by the command, so rule 1 does not report it.
	Fast Mode = iota
	// Slow is only a case label and an operand of ==, which build no
	// Mode: rule 1 reports it.
	Slow
)

// Limit is untyped: comparing against it uses it, so rule 1 does not
// report it.
const Limit = 3
