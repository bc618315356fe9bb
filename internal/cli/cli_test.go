package cli

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"afcnet/internal/experiments"
	"afcnet/internal/network"
)

// TestKindByNameCoversEveryKind: every router kind is selectable on the
// command line, under exactly one name.
func TestKindByNameCoversEveryKind(t *testing.T) {
	seen := map[network.Kind]string{}
	for name := range kindNames {
		k, ok := KindByName(name)
		if !ok {
			t.Fatalf("KindByName(%q) failed", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%v named both %q and %q", k, prev, name)
		}
		seen[k] = name
	}
	for k := network.Kind(0); k < network.NumKinds; k++ {
		if _, ok := seen[k]; !ok {
			t.Errorf("%v has no command-line name", k)
		}
	}
	if _, ok := KindByName("all"); ok {
		t.Error(`"all" must be left to the commands`)
	}
}

// TestRunOptionsAndManifest: the parsed run-mode flags land in
// experiments.Options without touching the base's run lengths, and
// finish writes the manifest -manifest names.
func TestRunOptionsAndManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	run := Register(fs)
	if err := fs.Parse([]string{"-parallel", "3", "-check", "-dense", "-nopool", "-shards", "2", "-manifest", path}); err != nil {
		t.Fatal(err)
	}
	opt := run.Options(experiments.Quick())
	if opt.Parallelism != 3 || !opt.Check || !opt.Dense || !opt.NoPool || opt.Shards != 2 {
		t.Errorf("run-mode flags not applied: %+v", opt)
	}
	if opt.MeasureTx != experiments.Quick().MeasureTx {
		t.Errorf("Options changed the base run length: %+v", opt)
	}
	_, finish, err := run.Start("test", []network.Kind{network.AFC}, opt.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	finish()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{`"command": "test"`, `"afc"`} {
		if !strings.Contains(string(buf), s) {
			t.Errorf("manifest lacks %s:\n%s", s, buf)
		}
	}
}
