package main

import "m/internal/b"

// Tool is exported from a package outside internal/, which is not checked.
func Tool() {}

func main() { _ = b.Run() }
