package main

import (
	"os"
	"strings"
	"testing"
)

// TestUsagePinnedInREADME keeps the README's generated flags reference
// byte-identical to what the binary actually prints for -help. The
// experiment table and the pathology registry both feed usageText, so
// adding an experiment or a pathology without regenerating the README
// block fails here instead of drifting silently.
func TestUsagePinnedInREADME(t *testing.T) {
	block := pinnedBlock(t, "../../README.md", "experiments-flags")
	want := strings.TrimSpace(usageText())
	if block != want {
		t.Errorf("README experiments-flags block is stale.\n--- README ---\n%s\n--- binary -help ---\n%s\n"+
			"regenerate with: go run ./cmd/experiments -help", block, want)
	}
}

// TestExperimentsBlocksPinned regenerates the sweep-driven verbatim
// blocks of EXPERIMENTS.md — the chaos matrix (§chaos), the pathology
// matrix with its fingerprints (§bench6) and the stateful timelines
// (§bench7) — and diffs each against the document.
func TestExperimentsBlocksPinned(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block func() string
	}{
		{"chaos", chaosBlock},
		{"bench6", pathologyBlock},
		{"bench7", func() string {
			return "== stateful: " + expTitle("stateful") + " ==\n" + statefulBlock()
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := pinnedBlock(t, "../../EXPERIMENTS.md", tc.name)
			if want := strings.TrimSpace(tc.block()); got != want {
				t.Errorf("EXPERIMENTS.md %s block is stale.\n--- EXPERIMENTS.md ---\n%s\n--- regenerated ---\n%s",
					tc.name, got, want)
			}
		})
	}
}

// expTitle returns the registered title of experiment id.
func expTitle(id string) string {
	for _, e := range exps {
		if e.id == id {
			return e.title
		}
	}
	return ""
}

// pinnedBlock returns the fenced block between the <!-- name:begin -->
// and <!-- name:end --> markers of the document at path, without its
// fence and surrounding whitespace.
func pinnedBlock(t *testing.T, path, name string) string {
	t.Helper()
	begin, end := "<!-- "+name+":begin -->", "<!-- "+name+":end -->"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	i := strings.Index(doc, begin)
	j := strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatalf("%s lacks the %s / %s block", path, begin, end)
	}
	block := strings.TrimSpace(doc[i+len(begin) : j])
	block = strings.TrimPrefix(block, "```")
	block = strings.TrimSuffix(block, "```")
	return strings.TrimSpace(block)
}

// TestUsageListsEveryExperiment guards the generator itself: every
// experiment id must appear in the reference, and the pathology flag
// must list every registered name.
func TestUsageListsEveryExperiment(t *testing.T) {
	u := usageText()
	for _, e := range exps {
		if !strings.Contains(u, "  "+e.id) {
			t.Errorf("usage text missing experiment %q", e.id)
		}
	}
	for _, name := range []string{"none", "nat64-checksum-corruption", "delegation-no-aaaa"} {
		if !strings.Contains(u, name) {
			t.Errorf("usage text missing pathology name %q", name)
		}
	}
}
