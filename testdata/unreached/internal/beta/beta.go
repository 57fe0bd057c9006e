// Package beta holds only dead declarations.
package beta

// All is alpha.All's namesake, and nothing calls it.
func All() []string { return nil }

// orphan is a type nothing names.
type orphan struct{}
