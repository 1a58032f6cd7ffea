// Package examples embeds the curated spec files, so the figure harnesses,
// the root benchmarks and their tests load the same testbed definitions
// `ehsim -scenario` and `ehsim-explore -spec` run, from any directory.
package examples

import (
	"embed"
	"fmt"

	"repro/internal/scenario"
)

// FS holds scenarios/*.json and explorations/*.json.
//
//go:embed scenarios/*.json explorations/*.json
var FS embed.FS

// Scenario parses the curated scenario scenarios/<name>.json.
func Scenario(name string) (*scenario.Spec, error) {
	path := "scenarios/" + name + ".json"
	data, err := FS.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("examples: %w", err)
	}
	sp, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}
