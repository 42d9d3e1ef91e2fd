//go:build !race

package ipe

const raceEnabled = false
