// Package a holds one declaration per rule of the surface gate.
package a

// Orphan is referenced only by its own constructor and method: dead, though
// a flat "has a use" rule would keep it.
type Orphan struct{ n int }

func NewOrphan() *Orphan { return &Orphan{} }

func (o *Orphan) Bump() *Orphan {
	o.n++
	return o
}

// ChainA calls chainB, which calls chainC, and nothing calls ChainA: the
// whole chain is dead.
func ChainA() int { return chainB() + 1 }

func chainB() int { return chainC() }

func chainC() int { return 1 }

// Shape is the interface cmd/tool converts a Square to.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

// Area is live only through the conversion to Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// Perimeter is not in Shape, and nothing calls it.
func (s Square) Perimeter() float64 { return 4 * s.Side }

type Label struct{ s string }

func MakeLabel(s string) Label { return Label{s} }

// String is live: cmd/tool passes a Label to fmt as an any.
func (l Label) String() string { return "label " + l.s }

// Unused is not a method fmt looks up.
func (l Label) Unused() string { return l.s }

// UsedByCmd is called from cmd/tool.
func UsedByCmd() int { return 2 }

// UsedByTest is called only from a _test.go file.
func UsedByTest() int { return 3 }

// tagHelper is called only from the purego build of Kernel.
func tagHelper() int { return 4 }

// Pending, Closed and Oracle are dead; the fixture's allowlists cite them.
func Pending() int { return 5 }

func Closed() int { return 6 }

func Oracle() int { return 7 }
