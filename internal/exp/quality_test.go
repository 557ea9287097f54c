package exp

import (
	"testing"

	"multidiag/internal/defect"
	"multidiag/internal/qrec"
)

func TestMechanismOf(t *testing.T) {
	cases := []struct {
		mix  defect.CampaignConfig
		want string
	}{
		{defect.CampaignConfig{MixStuck: 1}, "stuck"},
		{defect.CampaignConfig{MixOpen: 1}, "open"},
		{defect.CampaignConfig{MixBridge: 1}, "bridge"},
		{defect.CampaignConfig{}, "mixed"},
		{defect.CampaignConfig{MixStuck: 0.2, MixOpen: 0.7, MixBridge: 0.1}, "mixed"},
	}
	for _, c := range cases {
		if got := mechanismOf(c.mix); got != c.want {
			t.Errorf("mechanismOf(%+v) = %q, want %q", c.mix, got, c.want)
		}
	}
}

// runQualityCampaign runs one quick campaign with a collector attached
// and returns its records by key.
func runQualityCampaign(t *testing.T) (*campaign, map[string]qrec.Record) {
	t.Helper()
	wl, err := workload("b0300")
	if err != nil {
		t.Fatal(err)
	}
	o := quickOpts()
	o.fill()
	o.Quality = &qrec.Collector{}
	cp, err := runCampaign(o, "T3/b0300/2", wl, 2, o.Seeds, 123, []Method{MethodOurs, MethodSLAT}, nil, defect.CampaignConfig{})
	if err != nil {
		t.Fatal(err)
	}
	recs := map[string]qrec.Record{}
	for _, r := range o.Quality.File().Records {
		recs[r.Key()] = r
	}
	return cp, recs
}

// TestCampaignQualityRecords pins the record emission contract: one
// record per method, quality core matching the campaign aggregates, and
// phase/cache context on the ours record only.
func TestCampaignQualityRecords(t *testing.T) {
	cp, recs := runQualityCampaign(t)
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2: %v", len(recs), recs)
	}
	ours, ok := recs["T3/b0300/2|ours"]
	if !ok {
		t.Fatalf("no ours record: %v", recs)
	}
	if ours.Circuit != "b0300" || ours.Mechanism != "mixed" || ours.Defects != 2 || ours.Devices != cp.runs {
		t.Errorf("ours record identity wrong: %+v", ours)
	}
	if ours.SiteAcc != cp.aggSite[MethodOurs].MeanAccuracy() ||
		ours.RegionAcc != cp.aggRegion[MethodOurs].MeanAccuracy() ||
		ours.Success != cp.aggRegion[MethodOurs].SuccessRate() ||
		ours.Resolution != cp.aggRegion[MethodOurs].MeanResolution() {
		t.Errorf("ours quality core does not match campaign aggregates: %+v", ours)
	}
	if ours.MsPerDiag <= 0 {
		t.Errorf("ours ms/diag = %v", ours.MsPerDiag)
	}
	for _, ph := range corePhases {
		if _, ok := ours.PhaseMS[ph]; !ok {
			t.Errorf("ours record missing phase %q: %v", ph, ours.PhaseMS)
		}
	}
	if ours.ConeHitRate <= 0 || ours.ConeHitRate > 1 {
		t.Errorf("cone hit rate %v outside (0,1]", ours.ConeHitRate)
	}

	slat, ok := recs["T3/b0300/2|slat"]
	if !ok {
		t.Fatalf("no slat record: %v", recs)
	}
	if slat.PhaseMS != nil || slat.ConeHitRate != 0 {
		t.Errorf("baseline record carries core-only context: %+v", slat)
	}
}

// TestQualityCoreDeterministic: the gated fields must be identical across
// repeated runs — that is what lets mdgate quality treat any drop as semantic.
func TestQualityCoreDeterministic(t *testing.T) {
	_, a := runQualityCampaign(t)
	_, b := runQualityCampaign(t)
	if len(a) != len(b) {
		t.Fatalf("record counts differ: %d vs %d", len(a), len(b))
	}
	for k, ra := range a {
		rb, ok := b[k]
		if !ok {
			t.Fatalf("second run missing %q", k)
		}
		if ra.SiteAcc != rb.SiteAcc || ra.RegionAcc != rb.RegionAcc ||
			ra.Success != rb.Success || ra.Resolution != rb.Resolution ||
			ra.Devices != rb.Devices {
			t.Errorf("%s: quality core differs across runs:\n%+v\n%+v", k, ra, rb)
		}
	}
}
