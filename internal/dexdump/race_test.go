//go:build race

package dexdump

const raceEnabled = true
