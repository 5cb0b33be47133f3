//go:build race

package paper

func init() { raceEnabled = true }
