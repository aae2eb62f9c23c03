package cli

import (
	"io"
	"slices"
	"strings"
	"testing"
)

// TestParse pins the flag set's rules: flags after positional arguments,
// "--" ending the flags, no negative counts or durations but a signed
// flag's, and a group's check.
func TestParse(t *testing.T) {
	for _, c := range []struct {
		args     []string
		wantArgs []string
		wantErr  string
	}{
		{args: []string{"-n", "1", "put", "a", "b", "-d", "1s"}, wantArgs: []string{"put", "a", "b"}},
		{args: []string{"put", "--", "-n", "-1"}, wantArgs: []string{"put", "-n", "-1"}},
		{args: []string{"-n", "-1"}, wantErr: `invalid value "-1" for flag -n: must not be negative`},
		{args: []string{"q", "-d", "-1s"}, wantErr: `invalid value "-1s" for flag -d: must not be negative`},
		{args: []string{"-max-queued", "-1"}},
		{args: []string{"-plan", "fast"}, wantErr: `unknown -plan mode "fast"`},
	} {
		var out strings.Builder
		fs := New("bin", &out)
		fs.Int("n", 0, "a count")
		fs.Duration("d", 0, "a duration")
		AddAdmission(fs)
		AddStack(fs)
		err := fs.Parse(c.args)
		if c.wantErr == "" {
			if err != nil || !slices.Equal(fs.Args(), c.wantArgs) {
				t.Errorf("%v: err %v, args %q, want args %q", c.args, err, fs.Args(), c.wantArgs)
			}
			continue
		}
		if err == nil || !strings.Contains(out.String(), "bin: "+c.wantErr) {
			t.Errorf("%v: err %v, output %q, want %q", c.args, err, out.String(), c.wantErr)
		}
	}
}

// TestWorldSpec: the one HiddenHotels rule.
func TestWorldSpec(t *testing.T) {
	fs := New("bin", io.Discard)
	w := AddWorld(fs)
	if err := fs.Parse([]string{"-hotels", "12"}); err != nil {
		t.Fatal(err)
	}
	if spec := w.Spec(); spec.Hotels != 12 || spec.HiddenHotels != 2 {
		t.Fatalf("spec = %d hotels, %d hidden; want 12, 2", spec.Hotels, spec.HiddenHotels)
	}
}
