package exp

import (
	"fmt"
	"io"
	"time"
)

// RunAll executes every experiment and writes the full text report — the
// regeneration of all tables and figures in the paper's evaluation section.
func RunAll(w io.Writer, cfg Config) {
	cfg = cfg.Defaults()
	fmt.Fprintf(w, "# PLaNT / Canonical Hub Labeling — evaluation report\n")
	fmt.Fprintf(w, "# scale=%.2f seed=%d workers=%d full=%v\n", cfg.Scale, cfg.Seed, cfg.Workers, cfg.Full)
	fmt.Fprintf(w, "# generated %s\n", time.Now().Format(time.RFC3339))

	step := func(name string, fn func()) {
		start := time.Now()
		fn()
		fmt.Fprintf(w, "\n[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}

	step("Intro baselines", func() { WriteQueryBaselines(w, QueryBaselines(cfg)) })
	step("Table 3", func() { WriteTable3(w, Table3(cfg)) })
	step("Table 4", func() { WriteTable4(w, Table4(cfg)) })
	step("Figure 2", func() { WriteFigure2(w, Figure2(cfg)) })
	step("Figure 3", func() { WriteFigure3(w, Figure3(cfg)) })
	step("Figure 4", func() { WriteFigure4(w, Figure4(cfg)) })
	step("Figure 5", func() { WriteFigure5(w, Figure5(cfg)) })
	step("Figure 6", func() { WriteFigure6(w, Figure6(cfg)) })
	step("Figure 7", func() { WriteFigure7(w, Figure7(cfg)) })
	step("Figure 8", func() { WriteFigure8(w, Figure8(cfg)) })
	step("Figure 9", func() { WriteFigure9(w, Figure9(cfg)) })
	step("Ablation X2", func() { WriteAblationCommonTable(w, AblationCommonTable(cfg)) })
	step("Ablation X3", func() { WriteAblationTwoTables(w, AblationTwoTables(cfg)) })
	step("Ablation X4", func() { WriteAblationPlantFirst(w, AblationPlantFirst(cfg)) })
}
