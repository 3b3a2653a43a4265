// Command tool is the fixture's root: everything it reaches is live.
package main

import (
	"fmt"

	"fixture/internal/a"
)

func main() {
	var sh a.Shape = a.Square{Side: 2}
	fmt.Println(sh.Area(), a.UsedByCmd(), a.Kernel())
	fmt.Println(a.MakeLabel("x"))
}
