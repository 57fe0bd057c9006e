// Command tool is the fixture's main.
package main

import (
	"fmt"

	"fixture/internal/alpha"
)

func main() {
	var s alpha.Stats
	var err error = alpha.Fault{}
	fmt.Println(alpha.All(), s.N, err, alpha.Kind(1), alpha.Configure(nil, nil))
}
