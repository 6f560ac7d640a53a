package main

import "log"

// A command other than the daemon may exit through the log package.
func main() { log.Fatal("unknown graph class") }
