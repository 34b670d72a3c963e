package explore

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dsmnc"
	"dsmnc/serve"
)

func TestParseSpaceRejectsJunk(t *testing.T) {
	cases := []string{
		``,
		`{`,
		`[]`,
		`"bench"`,
		`{"bench":"FFT"} trailing`,
		`{"bench":"FFT"}{"bench":"FFT"}`,
		`{"bench":"FFT","bogus":1}`,
		`{"bench":"NoSuchBench"}`,
		`{}`,
		`{"bench":"FFT","scale":"huge"}`,
		`{"bench":"FFT","tech":["quantum"]}`,
		`{"bench":"FFT","orgs":["vx"]}`,
		`{"bench":"FFT","nc_kb":[0]}`,
		`{"bench":"FFT","nc_kb":[-4]}`,
		`{"bench":"FFT","nc_kb":[99999999]}`,
		`{"bench":"FFT","ways":[3]}`,
		`{"bench":"FFT","ways":[32]}`,
		`{"bench":"FFT","pc_frac":[1]}`,
		`{"bench":"FFT","pc_frac":[65]}`,
		`{"bench":"FFT","thresholds":[0]}`,
		`{"bench":"FFT","nc_kb":[` + manyInts(200) + `],"ways":[1,2,4,8,16],"orgs":["nc","vb","vp","vxp"],"thresholds":[` + manyInts(64) + `]}`,
	}
	for _, c := range cases {
		_, err := ParseSpace([]byte(c))
		if err == nil {
			t.Errorf("ParseSpace(%q) accepted", c)
			continue
		}
		if !errors.Is(err, ErrBadSpace) {
			t.Errorf("ParseSpace(%q): error %v is not ErrBadSpace", c, err)
		}
	}
	if _, err := ParseSpace([]byte(strings.Repeat(" ", MaxSpaceBytes+1))); !errors.Is(err, ErrBadSpace) {
		t.Errorf("oversized spec: error %v is not ErrBadSpace", err)
	}
}

func manyInts(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i)
	}
	return b.String()
}

func TestSpaceCanonicalization(t *testing.T) {
	a, err := ParseSpace([]byte(`{"bench":"FFT","tech":["sram","none","sram"],"orgs":["vp","nc","vb"],"nc_kb":[64,16,16],"ways":[4,1]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseSpace([]byte(`{"bench":"FFT","tech":["none","sram"],"orgs":["nc","vb","vp"],"nc_kb":[16,64],"ways":[1,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("reordered axes changed the fingerprint: %s vs %s", a.Fingerprint(), b.Fingerprint())
	}
	pa, err := a.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(pa) != len(pb) || len(pa) != 1+3*2*2 {
		t.Fatalf("enumerations disagree: %d vs %d points", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Name != pb[i].Name || pa[i].Cost != pb[i].Cost {
			t.Errorf("point %d differs: %q/%d vs %q/%d", i, pa[i].Name, pa[i].Cost, pb[i].Name, pb[i].Cost)
		}
	}
}

func TestEnumerateDeterministicAndValid(t *testing.T) {
	spec := `{"bench":"Ocean","scale":"test","tech":["none","sram","dram"],` +
		`"orgs":["nc","vb","vp","ncp","vbp","vpp","vxp"],"nc_kb":[4,16],"ways":[2,4],` +
		`"dram_kb":[256,512],"pc_frac":[3,5],"thresholds":[16,64]}`
	sp, err := ParseSpace([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	pts, err := sp.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	// 1 (none) + plain 3*2*2 + pc-orgs 3*2*2*2 + vxp 2*2*2*2 + dram 2.
	want := 1 + 12 + 24 + 16 + 2
	if len(pts) != want {
		t.Fatalf("enumerated %d points, want %d", len(pts), want)
	}
	seen := map[string]bool{}
	for _, pt := range pts {
		if seen[pt.Name] {
			t.Errorf("duplicate point name %q", pt.Name)
		}
		seen[pt.Name] = true
		// Every enumerated request must be re-parseable: what the
		// engine submits is exactly what the serve layer accepts.
		raw := fmt.Sprintf(`{"bench":%q,"system":%q,"scale":%q`, pt.Req.Bench, pt.Req.System, pt.Req.Scale)
		if pt.Req.NCBytes > 0 {
			raw += fmt.Sprintf(`,"nc_bytes":%d`, pt.Req.NCBytes)
		}
		if pt.Req.NCWays > 0 {
			raw += fmt.Sprintf(`,"nc_ways":%d`, pt.Req.NCWays)
		}
		if pt.Req.PCFrac > 0 {
			raw += fmt.Sprintf(`,"pc_frac":%d`, pt.Req.PCFrac)
		}
		if pt.Req.Threshold > 0 {
			raw += fmt.Sprintf(`,"threshold":%d`, pt.Req.Threshold)
		}
		raw += `}`
		if _, err := serve.ParseRequest([]byte(raw)); err != nil {
			t.Errorf("point %s: enumerated request rejected by serve: %v", pt.Name, err)
		}
	}
	again, err := sp.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range pts {
		if pts[i].Name != again[i].Name || pts[i].Sys != again[i].Sys || pts[i].Req != again[i].Req {
			t.Fatalf("enumeration is not deterministic at point %d", i)
		}
	}
}

func TestCostBits(t *testing.T) {
	if c := CostBits(dsmnc.Base()); c != 0 {
		t.Errorf("base cost %d, want 0", c)
	}
	nc, vb, vp := CostBits(sramSys("nc", 16<<10, 0)), CostBits(sramSys("vb", 16<<10, 0)), CostBits(sramSys("vp", 16<<10, 0))
	if nc != vb || vb != vp {
		t.Errorf("equal-geometry SRAM organizations must cost the same: nc %d vb %d vp %d", nc, vb, vp)
	}
	if big := CostBits(sramSys("vb", 64<<10, 0)); big <= vb {
		t.Errorf("64K vb cost %d not above 16K cost %d", big, vb)
	}
	pts, err := Space{Bench: "FFT", Orgs: []string{"vp", "vxp"}}.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	var vxp, plain int64
	for _, pt := range pts {
		if strings.HasPrefix(pt.Name, "sram-vxp") {
			vxp = pt.Cost
		}
		if strings.HasPrefix(pt.Name, "sram-vp-") {
			plain = pt.Cost
		}
	}
	if vxp <= plain {
		t.Errorf("vxp cost %d must exceed plain vp cost %d (per-set counters)", vxp, plain)
	}
}

// FuzzExploreSpace: any spec bytes produce either a valid, enumerable
// space or an ErrBadSpace-wrapped error — never a panic (make fuzz).
func FuzzExploreSpace(f *testing.F) {
	f.Add([]byte(`{"bench":"FFT"}`))
	f.Add([]byte(`{"bench":"Ocean","tech":["none","sram","dram"],"orgs":["vxp"],"pc_frac":[5],"thresholds":[32]}`))
	f.Add([]byte(`{"bench":"FFT","nc_kb":[1,2,4],"ways":[1,16]}`))
	f.Add([]byte(`{"bench":"FFT",`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"bench":"FFT","nc_kb":[16384],"ways":[16]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := ParseSpace(data)
		if err != nil {
			if !errors.Is(err, ErrBadSpace) {
				t.Fatalf("ParseSpace error %v is not ErrBadSpace", err)
			}
			return
		}
		pts, err := sp.Enumerate()
		if err != nil {
			if !errors.Is(err, ErrBadSpace) {
				t.Fatalf("Enumerate error %v is not ErrBadSpace", err)
			}
			return
		}
		if len(pts) == 0 || len(pts) > MaxPoints {
			t.Fatalf("accepted spec enumerated %d points", len(pts))
		}
	})
}
