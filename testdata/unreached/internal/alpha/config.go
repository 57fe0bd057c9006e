package alpha

// Config has one field for each way a field is written, and two that
// stay unset: Mode is only read, and only a test writes Unset. Wire is
// filled by JSON, so its tag exempts it.
type Config struct {
	Keyed    int
	Assigned int
	Multi    int
	Bound    int
	Counted  int
	Ranged   int
	Outer    Inner
	Wire     int `json:"wire"`
	Mode     int
	Unset    int
}

// Inner is written only through Config's Outer.
type Inner struct{ Depth int }

// Pair is written by position.
type Pair struct{ A, B int }

// Configure writes the fields of Config.
func Configure(bind func(*int), list []int) Config {
	c := Config{Keyed: 1}
	c.Assigned = 2
	c.Multi, _ = split()
	bind(&c.Bound)
	c.Counted++
	for _, c.Ranged = range list {
	}
	c.Outer.Depth = 3
	if c.Mode > 0 {
		_ = Pair{1, 2}
	}
	return c
}

func split() (int, int) { return 1, 2 }
