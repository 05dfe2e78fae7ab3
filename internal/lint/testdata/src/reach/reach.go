// Package main is the reachability fixture: one root, one function only
// an interface mention reaches, one dead function, one dead method on a
// live type, and one helper only tests would call.
package main

import "fmt"

type shape interface{ area() float64 }

type square struct{ side float64 }

// area is never called by name: total reaches it through shape.
func (s square) area() float64 { return s.side * s.side }

func total(shapes []shape) float64 {
	sum := 0.0
	for _, s := range shapes {
		sum += s.area()
	}
	return sum
}

func main() {
	fmt.Println(total([]shape{square{2}}))
}

// onlyTests stands for test support: the fixture test names it.
func onlyTests() float64 { return helper() }

func helper() float64 { return 1 }

func dead() float64 { return 0 }

// perimeter is dead although its receiver type is live.
func (s square) perimeter() float64 { return 4 * s.side }
