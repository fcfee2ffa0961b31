// Command fixture uses package a the way the exports gate's self-test
// expects.
package main

import (
	"encoding/json"
	"os"

	"fixture/internal/a"
)

func main() {
	a.Used{}.Run()
	_ = a.Dead{}
	a.Drive(a.Impl{})
	seen := map[a.Key]int{}
	seen[a.Key{Net: "n", Sig: "s"}]++
	s := a.Stats{Count: len(seen), Hidden: 1}
	s.Hidden = 2
	s.Bumped++
	s.Bumped += 2
	json.NewEncoder(os.Stdout).Encode(a.Snapshot{Shown: s.Count})
	mode := a.Fast
	switch mode {
	case a.Slow:
	}
	if mode == (a.Slow) || s.Count == a.Limit {
		os.Exit(1)
	}
}
