package scenario

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/par"
)

// DefaultSeed is the campaign seed used when none is given — and the seed
// the committed golden reports are generated under.
const DefaultSeed = 1998 // the paper's year

// GoldenName is the campaign report file committed next to the scenarios;
// the runner skips it when collecting specs and tier-1 diffs fresh output
// against it.
const GoldenName = "golden.json"

// Campaign is the machine-readable result of running every scenario in a
// directory under one seed. Like Report, it marshals to identical bytes for
// identical seeds.
type Campaign struct {
	Seed      int64    `json:"seed"`
	Scenarios []Report `json:"scenarios"`
	Total     int      `json:"total"`
	Failed    int      `json:"failed"`
	Passed    bool     `json:"passed"`
}

// Marshal renders the campaign result as indented JSON with a trailing
// newline — the exact bytes the golden file holds.
func (c *Campaign) Marshal() []byte {
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		panic(err) // only marshalable fields
	}
	return append(b, '\n')
}

// RunFile loads one scenario file and runs it under the campaign seed.
func RunFile(path string, campaignSeed int64) (Report, error) {
	spec, err := loadSpec(path)
	if err != nil {
		return Report{}, err
	}
	return Run(spec, campaignSeed), nil
}

// RunCampaign runs every *.json scenario in dir (sorted by filename,
// skipping the golden report) under one campaign seed. A malformed scenario
// file is a hard error — a chaos campaign that silently skips scenarios is
// worse than one that fails loudly.
func RunCampaign(dir string, seed int64) (*Campaign, error) {
	return RunCampaignN(dir, seed, 1)
}

// RunCampaignN is RunCampaign sharded over `workers` OS threads (0 = one
// per CPU). Every scenario is an independent replica — it builds its own
// kernel and derives every RNG stream from (campaign seed, scenario name)
// — so the merged report is byte-identical to the sequential runner's no
// matter the worker count: results land in the slice slot filename order
// assigned, not completion order.
func RunCampaignN(dir string, seed int64, workers int) (*Campaign, error) {
	entries, err := os.ReadDir(dir) // sorted by filename
	if err != nil {
		return nil, err
	}
	var specs []Spec
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || name == GoldenName {
			continue
		}
		spec, err := loadSpec(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: no scenario files in %s", dir)
	}
	c := &Campaign{Seed: seed, Scenarios: make([]Report, len(specs)), Total: len(specs)}
	par.ForEach(len(specs), workers, func(i int) {
		c.Scenarios[i] = Run(specs[i], seed)
	})
	for _, rep := range c.Scenarios {
		if !rep.Passed {
			c.Failed++
		}
	}
	c.Passed = c.Failed == 0
	return c, nil
}
