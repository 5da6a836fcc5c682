package b

import "m/internal/a"

var _ a.Sizer = a.T{}

// Run is called from the command.
func Run() int { return a.Used() + a.Limit }
