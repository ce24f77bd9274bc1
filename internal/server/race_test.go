//go:build race

package server

// raceEnabled reports a race-detector build, under which sync.Pool drops
// pooled items at random and allocation counts are not meaningful.
const raceEnabled = true
