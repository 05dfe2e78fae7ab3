// Package main is the options fixture: a config struct with one field a
// caller sets, one only the struct's own method defaults, and one written
// nowhere.
package main

import "fmt"

type poolConfig struct {
	Size    int // set by main
	Backoff int // written only by withDefaults: flagged
	Burst   int // written by nobody: flagged
	depth   int // unexported: not an option
}

func (c poolConfig) withDefaults() poolConfig {
	if c.Backoff == 0 {
		c.Backoff = 3
	}
	c.depth = 1
	return c
}

func main() {
	c := poolConfig{Size: 4}.withDefaults()
	fmt.Println(c.Size, c.Backoff, c.Burst, c.depth)
}
