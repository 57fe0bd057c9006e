package alpha

import "testing"

// A write in a test does not count: Unset stays in the report.
func TestUnset(t *testing.T) { _ = Config{Unset: 1} }
