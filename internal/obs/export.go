package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// The flat metrics-JSON format of every command's -metrics file:
//
//	{
//	  "name": "figure4",
//	  "metrics": {
//	    "freetts.cs_pointer.peak_nodes": 17664,
//	    "freetts.cs_pointer.time_sec": 0.41
//	  }
//	}
//
// Keys are dotted paths sorted lexicographically, one per line, so
// successive snapshots diff cleanly and trend tooling can treat every
// key as an independent series.

// WriteJSON writes the registry's snapshot in the flat metrics format.
func (m *Metrics) WriteJSON(w io.Writer, name string) error {
	return WriteMetricsJSON(w, name, m.Snapshot())
}

// WriteMetricsJSON writes an arbitrary flat name → value map in the
// metrics format. Non-finite values are clamped to 0 (JSON has no
// NaN/Inf).
func WriteMetricsJSON(w io.Writer, name string, values map[string]float64) error {
	keys := make([]string, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	bw := bufio.NewWriter(w)
	nameJSON, err := json.Marshal(name)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "{\n  \"name\": %s,\n  \"metrics\": {", nameJSON)
	for i, k := range keys {
		v := values[k]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		kj, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vj, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Fprint(bw, ",")
		}
		fmt.Fprintf(bw, "\n    %s: %s", kj, vj)
	}
	fmt.Fprint(bw, "\n  }\n}\n")
	return bw.Flush()
}
