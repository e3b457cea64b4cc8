package exp

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Experiment is one table or figure of the report.
type Experiment struct {
	Name  string // the experiments -only name
	Title string // the report's heading for it
	Run   func(w io.Writer, cfg Config)
}

// experiments lists every experiment in report order.
var experiments = []Experiment{
	{"intro", "Intro baselines", func(w io.Writer, cfg Config) { WriteQueryBaselines(w, QueryBaselines(cfg)) }},
	{"table3", "Table 3", func(w io.Writer, cfg Config) { WriteTable3(w, Table3(cfg)) }},
	{"table4", "Table 4", func(w io.Writer, cfg Config) { WriteTable4(w, Table4(cfg)) }},
	{"fig2", "Figure 2", func(w io.Writer, cfg Config) { WriteFigure2(w, Figure2(cfg)) }},
	{"fig3", "Figure 3", func(w io.Writer, cfg Config) { WriteFigure3(w, Figure3(cfg)) }},
	{"fig4", "Figure 4", func(w io.Writer, cfg Config) { WriteFigure4(w, Figure4(cfg)) }},
	{"fig5", "Figure 5", func(w io.Writer, cfg Config) { WriteFigure5(w, Figure5(cfg)) }},
	{"fig6", "Figure 6", func(w io.Writer, cfg Config) { WriteFigure6(w, Figure6(cfg)) }},
	{"fig7", "Figure 7", func(w io.Writer, cfg Config) { WriteFigure7(w, Figure7(cfg)) }},
	{"fig8", "Figure 8", func(w io.Writer, cfg Config) { WriteFigure8(w, Figure8(cfg)) }},
	{"fig9", "Figure 9", func(w io.Writer, cfg Config) { WriteFigure9(w, Figure9(cfg)) }},
	{"x2", "Ablation X2", func(w io.Writer, cfg Config) { WriteAblationCommonTable(w, AblationCommonTable(cfg)) }},
	{"x3", "Ablation X3", func(w io.Writer, cfg Config) { WriteAblationTwoTables(w, AblationTwoTables(cfg)) }},
	{"x4", "Ablation X4", func(w io.Writer, cfg Config) { WriteAblationPlantFirst(w, AblationPlantFirst(cfg)) }},
}

// Names returns every experiment's name in report order.
func Names() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// Lookup returns the experiment called name (case and surrounding space
// ignored).
func Lookup(name string) (Experiment, error) {
	name = strings.TrimSpace(strings.ToLower(name))
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(Names(), ", "))
}

// RunAll executes every experiment and writes the full text report — the
// regeneration of all tables and figures in the paper's evaluation section.
func RunAll(w io.Writer, cfg Config) {
	cfg = cfg.Defaults()
	fmt.Fprintf(w, "# PLaNT / Canonical Hub Labeling — evaluation report\n")
	fmt.Fprintf(w, "# scale=%.2f seed=%d workers=%d full=%v\n", cfg.Scale, cfg.Seed, cfg.Workers, cfg.Full)
	fmt.Fprintf(w, "# generated %s\n", time.Now().Format(time.RFC3339))
	for _, e := range experiments {
		start := time.Now()
		e.Run(w, cfg)
		fmt.Fprintf(w, "\n[%s done in %v]\n", e.Title, time.Since(start).Round(time.Millisecond))
	}
}
