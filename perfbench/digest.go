package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"xlate/internal/harness"
)

// renderSuite renders suite results exactly as cmd/experiments prints
// them in markdown, timing suffixes included, and returns how many
// experiments failed.
func renderSuite(results []harness.ExperimentResult) (string, int) {
	var b strings.Builder
	failures := 0
	for _, r := range results {
		fmt.Fprintf(&b, "## %s  (%.1fs)\n\n", r.ID, r.Elapsed.Seconds())
		if r.Err != nil {
			failures++
			msg, _, _ := strings.Cut(r.Err.Error(), "\n")
			fmt.Fprintf(&b, "_not reproduced: %s_\n\n", msg)
			continue
		}
		for _, t := range r.Tables {
			b.WriteString(t.Markdown())
			b.WriteString("\n")
		}
	}
	return b.String(), failures
}

// timingSuffix matches the "  (N.Ns)" wall-clock suffix of an
// experiment header, the only part of the rendered output that differs
// between two runs of the same inputs.
var timingSuffix = regexp.MustCompile(`(?m)^(## \S+)  \(\d+(?:\.\d+)?s\)$`)

// normalizeHeaders strips the timing suffix from every "## id" header.
func normalizeHeaders(rendered string) string {
	return timingSuffix.ReplaceAllString(rendered, "$1")
}

// tableDigest is the SHA-256 of the rendered tables with their headers
// normalized.
func tableDigest(rendered string) string {
	sum := sha256.Sum256([]byte(normalizeHeaders(rendered)))
	return hex.EncodeToString(sum[:])
}

// pinnedDigests are the table digests of the suite workloads for the
// default seed and one held-out seed. fig10-live and fig10-replay
// render the same tables, so they share the "fig10" entry. A change
// that only adds speed leaves every one of them unchanged.
// They equal the digests of `experiments -exp fig10 -instrs 2000000`
// and `experiments -exp all -instrs 200000` at the same seed.
var pinnedDigests = map[string]map[int64]string{
	"fig10": {
		defaultSeed: "347d77cc48b419661a7389b1777f17d324c883dbdadbdb4b65f42a419a312c4e",
		heldOutSeed: "a04691bd8bce765d89e588485a6af4195c050273b31bb15a4c22aca369a17a4e",
	},
	"all-short": {
		defaultSeed: "f9696b0494df25444ef6097e967a81a5801f4aee2ef269f56cf7b6bc083ee8a2",
		heldOutSeed: "7b951baf14a86d59890d491d5ad65df7bea3b8b9cba49d35d79f7578bd78b430",
	},
}

const (
	defaultSeed int64 = 1
	heldOutSeed int64 = 2027
)

// witnessGroup names the set of runs whose witnesses must agree: the
// two fig10 workloads simulate the same cells.
func witnessGroup(workload string) string {
	if strings.HasPrefix(workload, "fig10-") {
		return "fig10"
	}
	return workload
}

// checkPinned compares a digest against the pinned one for the seed,
// when there is one.
func checkPinned(workload string, seed int64, digest string) error {
	want := pinnedDigests[witnessGroup(workload)][seed]
	if want == "" || want == digest {
		return nil
	}
	return fmt.Errorf("table digest %.16s… differs from the pinned %.16s… for seed %d", digest, want, seed)
}

// witnessStore keeps, per witness group and seed, the exact-repeat
// witnesses of earlier runs of the same benchmark binary, so drift
// between two runs of one seed fails the later run. Keys present in
// both the stored and the new set must be equal; new keys are added.
type witnessStore struct{ dir string }

func (w witnessStore) path(group string, seed int64, binHash string) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s-seed%d-%s.json", group, seed, binHash))
}

// checkAndRecord compares got with the stored witnesses and stores the
// merged set. It returns one line per witness that drifted.
func (w witnessStore) checkAndRecord(group string, seed int64, binHash string, got map[string]string) ([]string, error) {
	p := w.path(group, seed, binHash)
	stored := map[string]string{}
	data, err := os.ReadFile(p)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &stored); err != nil {
			return nil, fmt.Errorf("reading witnesses %s: %w", p, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return nil, fmt.Errorf("reading witnesses: %w", err)
	}
	var drift []string
	for _, k := range sortedKeys(got) {
		if old, ok := stored[k]; ok && old != got[k] {
			drift = append(drift, fmt.Sprintf("witness %s drifted from an earlier run of seed %d: %s then %s", k, seed, old, got[k]))
			continue
		}
		stored[k] = got[k]
	}
	if err := os.MkdirAll(w.dir, 0o755); err != nil {
		return nil, fmt.Errorf("witness dir: %w", err)
	}
	out, _ := json.MarshalIndent(stored, "", "  ") // a map of strings always encodes
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return nil, fmt.Errorf("writing witnesses: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return nil, fmt.Errorf("writing witnesses: %w", err)
	}
	return drift, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
