// Package a declares one exported name of each kind the export check sorts.
package a

// Used has a production caller.
func Used() int { return 1 }

// OnlyTested is called by this package's test alone.
func OnlyTested() int { return 2 }

// Sizer is an interface the module declares.
type Sizer interface{ Size() int }

// Box implements Sizer.
type Box struct{}

// Size implements Sizer, so it needs no direct caller.
func (Box) Size() int { return 3 }

// Spare is a method nothing calls.
func (Box) Spare() int { return 4 }
