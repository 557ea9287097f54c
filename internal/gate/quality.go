package gate

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"multidiag/internal/qrec"
	"multidiag/internal/volume"
)

// Quality limits. Accuracy and success rate are deterministic from the
// campaign seeds, so a drop past 0.02 is a semantic regression, not
// noise. Resolution trades off against accuracy by design, and
// ms/diagnosis is machine-dependent and very noisy on 3-seed campaigns,
// so their growth only warns.
var (
	accuracyDrop     = Limit{Fail: 0.02, Abs: true}
	resolutionGrowth = Limit{Warn: 25}
	latencyGrowth    = Limit{Warn: 200}
)

// Service limits. Under the pinned smoke scenario the admission limits
// are deterministic, so a shed-rate rise means the serving path got
// slower or the limits changed; p95 latency is machine-dependent and
// only warns. Any handler panic in the current run is an error.
var (
	shedRise       = Limit{Fail: 0.05, Abs: true}
	serveP95Growth = Limit{Warn: 75}
)

// Volume limits. On the pinned synthetic stream (mdgen -datalogs, fixed
// seed) the whole summary is deterministic, so the gates are tight: a
// fingerprint that stops matching repeats turns them into unique
// devices, the dedupe ratio falls and the unique-syndrome count grows.
var (
	dedupeDrop   = Limit{Fail: 0.02, Abs: true}
	uniqueGrowth = Limit{Fail: 10}
)

// volumeSchemaPrefix matches every volume.SummarySchema version, so a
// summary from another version loads and then fails the gate as a schema
// mismatch.
const volumeSchemaPrefix = "mdvol/summary/"

// LoadQuality reads a quality-record file (mdexp -quality-out; "-"
// reads stdin).
func LoadQuality(path string) (*qrec.File, error) {
	return load(path, func(f *qrec.File) error {
		if f.Schema == 0 || f.Records == nil {
			return errors.New("not a quality-record file (missing schema/records)")
		}
		return nil
	})
}

// LoadService reads a service-record file (mdserve -service-record-out;
// "-" reads stdin).
func LoadService(path string) (*qrec.ServiceFile, error) {
	return load(path, func(f *qrec.ServiceFile) error {
		if f.Schema == 0 || f.Records == nil {
			return errors.New("not a service-record file (missing schema/records)")
		}
		return nil
	})
}

// LoadVolume reads a volume fleet summary (mdvol -summary-out, GET
// /v1/volume/summary; "-" reads stdin).
func LoadVolume(path string) (*volume.Summary, error) {
	return load(path, func(s *volume.Summary) error {
		if !strings.HasPrefix(s.Schema, volumeSchemaPrefix) {
			return fmt.Errorf("schema %q is not a volume summary (want %s*)", s.Schema, volumeSchemaPrefix)
		}
		return nil
	})
}

// byKey indexes records by their Key; duplicate keys keep the last.
func byKey[R interface{ Key() string }](recs []R) map[string]R {
	out := make(map[string]R, len(recs))
	for _, r := range recs {
		out[r.Key()] = r
	}
	return out
}

// Quality prints the per-record delta table and gates accuracy and
// success drops (errors) and resolution and latency growth (warnings),
// errors first. A schema mismatch is a single error: comparing
// incompatible layouts silently would defeat the gate.
func Quality(w io.Writer, base, cur *qrec.File) []Finding {
	if base.Schema != cur.Schema {
		return []Finding{{Level: Error, Key: "schema", Message: fmt.Sprintf(
			"schema mismatch: baseline v%d vs current v%d — regenerate the baseline", base.Schema, cur.Schema)}}
	}
	var fs []Finding
	fmt.Fprintf(w, "%-28s %-10s %18s %18s %16s %14s\n",
		"campaign", "method", "site acc", "region acc", "success", "resolution")
	walk(byKey(base.Records), byKey(cur.Records), func(k string, b, c qrec.Record, inBase, inCur bool) {
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-28s %-10s %66s\n", b.Campaign, b.Method, "— gone from current run")
			return
		case !inBase:
			fmt.Fprintf(w, "%-28s %-10s %66s\n", c.Campaign, c.Method, "— new (not in baseline)")
			return
		}
		fmt.Fprintf(w, "%-28s %-10s %8.4f → %7.4f %8.4f → %7.4f %7.3f → %6.3f %6.1f → %5.1f\n",
			c.Campaign, c.Method,
			b.SiteAcc, c.SiteAcc, b.RegionAcc, c.RegionAcc,
			b.Success, c.Success, b.Resolution, c.Resolution)
		for _, m := range []struct {
			name   string
			bv, cv float64
		}{
			{"site accuracy", b.SiteAcc, c.SiteAcc},
			{"region accuracy", b.RegionAcc, c.RegionAcc},
			{"success rate", b.Success, c.Success},
		} {
			if level, drop, limit := accuracyDrop.Check(-m.bv, -m.cv); level != "" {
				fs = append(fs, Finding{Level: level, Key: k, Message: fmt.Sprintf(
					"%s %s dropped %.4f → %.4f (−%.4f, threshold %.4f)", k, m.name, m.bv, m.cv, drop, limit)})
			}
		}
		if level, pct, limit := resolutionGrowth.Check(b.Resolution, c.Resolution); level != "" {
			fs = append(fs, Finding{Level: level, Key: k, Message: fmt.Sprintf(
				"%s resolution grew %.1f%% (%.1f → %.1f candidates, threshold %.0f%%)", k, pct, b.Resolution, c.Resolution, limit)})
		}
		if level, pct, limit := latencyGrowth.Check(b.MsPerDiag, c.MsPerDiag); level != "" {
			fs = append(fs, Finding{Level: level, Key: k, Message: fmt.Sprintf(
				"%s slowed %.1f%% (%.1f → %.1f ms/diag, threshold %.0f%%)", k, pct, b.MsPerDiag, c.MsPerDiag, limit)})
		}
	})
	return errorsFirst(fs)
}

// Serve prints the per-label service delta table and gates panics and
// shed-rate rises (errors) and p95 latency growth (warnings), errors
// first.
func Serve(w io.Writer, base, cur *qrec.ServiceFile) []Finding {
	if base.Schema != cur.Schema {
		return []Finding{{Level: Error, Key: "schema", Message: fmt.Sprintf(
			"service schema mismatch: baseline v%d vs current v%d — regenerate the baseline", base.Schema, cur.Schema)}}
	}
	var fs []Finding
	fmt.Fprintf(w, "%-16s %14s %16s %16s %18s\n",
		"label", "requests", "shed rate", "mean batch", "service p95 ms")
	walk(byKey(base.Records), byKey(cur.Records), func(k string, b, c qrec.ServiceRecord, inBase, inCur bool) {
		switch {
		case !inCur:
			fmt.Fprintf(w, "%-16s %66s\n", b.Label, "— gone from current run")
			return
		case !inBase:
			fmt.Fprintf(w, "%-16s %66s\n", c.Label, "— new (not in baseline)")
			return
		}
		fmt.Fprintf(w, "%-16s %5d → %5d %7.3f → %6.3f %7.2f → %6.2f %8.2f → %7.2f\n",
			c.Label, b.Requests, c.Requests, b.ShedRate, c.ShedRate,
			b.MeanBatch, c.MeanBatch, b.ServiceP95MS, c.ServiceP95MS)
		if c.Panics > 0 {
			fs = append(fs, Finding{Level: Error, Key: k, Message: fmt.Sprintf(
				"%s: %d handler panic(s) in current run", k, c.Panics)})
		}
		if level, rise, limit := shedRise.Check(b.ShedRate, c.ShedRate); level != "" {
			fs = append(fs, Finding{Level: level, Key: k, Message: fmt.Sprintf(
				"%s shed rate rose %.3f → %.3f (+%.3f, threshold %.3f)", k, b.ShedRate, c.ShedRate, rise, limit)})
		}
		if level, pct, limit := serveP95Growth.Check(b.ServiceP95MS, c.ServiceP95MS); level != "" {
			fs = append(fs, Finding{Level: level, Key: k, Message: fmt.Sprintf(
				"%s service p95 slowed %.1f%% (%.2f → %.2f ms, threshold %.0f%%)", k, pct, b.ServiceP95MS, c.ServiceP95MS, limit)})
		}
	})
	return errorsFirst(fs)
}

// Volume prints the fleet-summary delta and gates the dedupe ratio, the
// unique-syndrome count and the defect-class distribution, all errors.
// Mismatched schemas, workloads or device counts are errors before
// anything else: ratios from different streams do not compare.
func Volume(w io.Writer, base, cur *volume.Summary) []Finding {
	if base.Schema != cur.Schema {
		return []Finding{{Level: Error, Key: "schema", Message: fmt.Sprintf(
			"volume schema mismatch: baseline %q vs current %q — regenerate the baseline", base.Schema, cur.Schema)}}
	}
	if base.Workload != cur.Workload {
		return []Finding{{Level: Error, Key: "workload", Message: fmt.Sprintf(
			"volume summaries compare different workloads: %q vs %q", base.Workload, cur.Workload)}}
	}
	fmt.Fprintf(w, "%-16s %14s %14s\n", "metric", "base", "cur")
	fmt.Fprintf(w, "%-16s %14d %14d\n", "devices", base.Devices, cur.Devices)
	fmt.Fprintf(w, "%-16s %14d %14d\n", "failing", base.Failing, cur.Failing)
	fmt.Fprintf(w, "%-16s %14d %14d\n", "unique", base.UniqueSyndromes, cur.UniqueSyndromes)
	fmt.Fprintf(w, "%-16s %14.3f %14.3f\n", "dedupe ratio", base.DedupeRatio, cur.DedupeRatio)

	key := cur.Workload
	if base.Devices != cur.Devices {
		return []Finding{{Level: Error, Key: key, Message: fmt.Sprintf(
			"%s: device count changed %d → %d — different streams, regenerate the baseline", key, base.Devices, cur.Devices)}}
	}
	var fs []Finding
	if level, drop, limit := dedupeDrop.Check(-base.DedupeRatio, -cur.DedupeRatio); level != "" {
		fs = append(fs, Finding{Level: level, Key: key, Message: fmt.Sprintf(
			"%s dedupe ratio dropped %.3f → %.3f (-%.3f, threshold %.3f): syndrome fingerprint no longer matches repeats",
			key, base.DedupeRatio, cur.DedupeRatio, drop, limit)})
	}
	if level, pct, limit := uniqueGrowth.Check(float64(base.UniqueSyndromes), float64(cur.UniqueSyndromes)); level != "" {
		fs = append(fs, Finding{Level: level, Key: key, Message: fmt.Sprintf(
			"%s unique syndromes grew %.1f%% (%d → %d, threshold %.0f%%): fingerprint unstable",
			key, pct, base.UniqueSyndromes, cur.UniqueSyndromes, limit)})
	}
	if !slices.Equal(base.Classes, cur.Classes) {
		fs = append(fs, Finding{Level: Error, Key: key, Message: fmt.Sprintf(
			"%s defect-class distribution changed: %s → %s", key, formatClasses(base.Classes), formatClasses(cur.Classes))})
	}
	return fs
}

func formatClasses(cs []volume.ClassCount) string {
	if len(cs) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(cs))
	for _, c := range cs {
		parts = append(parts, fmt.Sprintf("%s:%d", c.Class, c.Devices))
	}
	return strings.Join(parts, " ")
}
