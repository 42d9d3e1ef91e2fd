// Command inspire-sim compiles a model with the INSPIRE runtime, prints the
// per-operator implementation selection and modeled execution, validates
// the activation memory plan, and optionally runs a real inference.
//
// Usage:
//
//	inspire-sim -model resnet18 -hw 64 -bits 4
//	inspire-sim -model mobilenet -force ipe -run
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/accel"
	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/report"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

func main() {
	model := flag.String("model", "resnet18", "model: lenet5 | resnet18 | vgg16 | mobilenet")
	hw := flag.Int("hw", 64, "input spatial size (multiple of 32)")
	bits := flag.Int("bits", 4, "weight quantization bit-width")
	force := flag.String("force", "auto", "implementation: auto | dense | csr | factorized | ipe | winograd")
	run := flag.Bool("run", false, "execute one inference on the CPU")
	seed := flag.Uint64("seed", 1, "weight RNG seed")
	save := flag.String("save", "", "write the model (graph + weights) to this file and exit")
	dot := flag.String("dot", "", "write the graph in Graphviz DOT format to this file")
	load := flag.String("load", "", "load the model from this file instead of building one")
	flag.Parse()

	var g *graph.Graph
	if *load != "" {
		f, err := os.Open(*load)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		g, err = graph.ReadGraph(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: loading model: %v\n", err)
			os.Exit(1)
		}
		*model = *load
	}
	if g == nil {
		switch *model {
		case "lenet5":
			g = nn.LeNet5(1, *seed)
		case "resnet18":
			g = nn.ResNet18(1, *hw, 10, *seed)
		case "vgg16":
			g = nn.VGG16(1, *hw, 10, *seed)
		case "mobilenet":
			g = nn.MobileNetV1(1, *hw, 10, *seed)
		case "squeezenet":
			g = nn.SqueezeNet(1, *hw, 10, *seed)
		default:
			fmt.Fprintf(os.Stderr, "inspire-sim: unknown model %q\n", *model)
			os.Exit(1)
		}
	}

	if *save != "" {
		if err := g.InferShapes(); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*save)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		if err := g.Save(f); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: saving model: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("saved %s\n", *save)
		return
	}

	forceImpl, ok := runtime.ImplByName(*force)
	if !ok {
		fmt.Fprintf(os.Stderr, "inspire-sim: unknown implementation %q\n", *force)
		os.Exit(1)
	}

	if *dot != "" {
		if err := g.InferShapes(); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(*dot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		if err := g.WriteDOT(f); err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("wrote %s\n", *dot)
	}

	hwCfg := accel.Default()
	plan, err := runtime.Compile(g, runtime.Options{Bits: *bits, Force: forceImpl, HW: hwCfg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "inspire-sim: %v\n", err)
		os.Exit(1)
	}

	t := plan.Describe()
	t.Title = fmt.Sprintf("%s plan (input %dx%d, %d-bit weights)", *model, *hw, *hw, *bits)
	t.Fprint(os.Stdout)
	fmt.Printf("\ntotal: %.1f us, %.2f uJ, DRAM %s, arena %s\n",
		plan.Total.Microseconds(hwCfg), plan.Total.EnergyPJ/1e6,
		report.Bytes(plan.Total.DRAMBytes), report.Bytes(plan.ArenaBytes))
	counts := plan.ImplCounts()
	fmt.Printf("impl selection: dense=%d winograd=%d csr=%d factorized=%d ipe=%d\n",
		counts[runtime.ImplDense], counts[runtime.ImplWinograd], counts[runtime.ImplCSR],
		counts[runtime.ImplFactorized], counts[runtime.ImplIPE])

	if err := runtime.ValidatePlan(plan.Graph, plan.Alloc, plan.ArenaBytes); err != nil {
		fmt.Fprintf(os.Stderr, "inspire-sim: memory plan INVALID: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("memory plan: valid (no live-buffer overlap)")

	if *run {
		r := tensor.NewRNG(*seed + 1)
		in := tensor.New(plan.Graph.In.OutShape...)
		tensor.FillGaussian(in, r, 1)
		out, err := plan.Run(in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "inspire-sim: run failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("inference output shape %v, argmax %d\n", out.Shape(), argmax(out.Data()))
	}
}

func argmax(xs []float32) int {
	best, bi := xs[0], 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
