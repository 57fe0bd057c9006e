// Package alpha holds the fixture's reached declarations and the dead ones
// that hang off them.
package alpha

// All is called by main; beta.All, its namesake, is not.
func All() []string { return []string{"alpha"} }

// Stats is reached, its Merge is not, and addInto is Merge's alone.
type Stats struct{ N int }

// Merge adds o into s.
func (s *Stats) Merge(o Stats) {
	addInto(&s.N, o.N)
}

func addInto(dst *int, v int) { *dst += v }

// Fault is reached only as an error.
type Fault struct{}

func (Fault) Error() string { return "fault" }

// Kind is reached only as a fmt.Stringer; no interface has a Label.
type Kind int

func (k Kind) String() string { return "kind" }

// Label is dead although its type is not.
func (k Kind) Label() string { return "label" }

// Shape and Square are reached only through the assertion.
type Shape interface{ Area() float64 }

// Square has the Area a Shape needs.
type Square struct{ Side float64 }

var _ Shape = (*Square)(nil)

// Area is reached through Shape.
func (q *Square) Area() float64 { return q.Side * q.Side }

// Sum is what the API calls.
func Sum(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v
	}
	return s
}

// Reference is the named oracle Sum is checked against; compensated is
// reached through it alone.
func Reference(x []float64) float64 { return compensated(x) }

func compensated(x []float64) float64 {
	s, c := 0.0, 0.0
	for _, v := range x {
		y := v - c
		t := s + y
		c = (t - s) - y
		s = t
	}
	return s
}

// table runs build at initialisation.
var table = build()

func build() []int { return []int{1} }

func init() { register() }

func register() { table = append(table, 2) }

// limit is a constant nothing reads.
const limit = 3
