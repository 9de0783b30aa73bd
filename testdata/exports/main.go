// Command fixture is the production caller of the fixture's internal names.
package main

import "example.com/fixture/internal/a"

func main() {
	var s a.Sizer = a.Box{}
	_ = s.Size() + a.Used()
}
