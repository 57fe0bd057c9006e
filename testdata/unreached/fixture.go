// Package fixture is the reachability gate's own test module. Each
// declaration under internal/ is reached, or left unreached, and each
// exported field written, or left unset, in one of the ways the gate must
// tell apart; TestUnreached pins both reports.
package fixture

import "fixture/internal/alpha"

// Total is the module's API.
func Total(x []float64) float64 { return alpha.Sum(x) }
