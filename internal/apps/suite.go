package apps

import "streamit/internal/ir"

// App is one benchmark program with its builder.
type App struct {
	Name string
	Desc string
	// Build constructs a fresh program (filters are single-appearance, so
	// every use needs a new instance).
	Build func() *ir.Program
}

// Suite returns the 12-application parallelization benchmark suite of the
// paper's evaluation, with parameters sized to the published benchmark
// characteristics (filter counts, peeking, state).
func Suite() []App {
	return []App{
		{"BitonicSort", "bitonic sorting network, 16 keys (fine-grained)", func() *ir.Program { return BitonicSort(16) }},
		{"ChannelVocoder", "pitch detector + 16-channel filter bank", func() *ir.Program { return ChannelVocoder(16, 64) }},
		{"DCT", "16x16 IEEE reference DCT", DCT},
		{"DES", "16-round DES block cipher on bit streams", func() *ir.Program { return DES(16) }},
		{"FFT", "64-point FFT (reorder + butterfly stages)", func() *ir.Program { return FFTApp(64) }},
		{"FilterBank", "8-branch multirate analysis/synthesis bank", func() *ir.Program { return FilterBank(8, 64) }},
		{"FMRadio", "FM radio with 10-band equalizer", func() *ir.Program { return FMRadio(10, 64) }},
		{"Serpent", "32-round Serpent cipher (long pipeline)", func() *ir.Program { return Serpent(32) }},
		{"TDE", "time-delay equalization (long transform pipeline)", func() *ir.Program { return TDE(36, 5) }},
		{"MPEG2Decoder", "MPEG-2 block + motion-vector decoding subset", MPEG2Decoder},
		{"Vocoder", "phase vocoder (stateful phase unwrapping)", func() *ir.Program { return Vocoder(15) }},
		{"Radar", "beamformer with stateful input FIRs", func() *ir.Program { return Radar(12, 4) }},
	}
}

// LinearSuite returns the linear-optimization benchmark suite (the PLDI'03
// applications reproducible in this framework): each is dominated by
// linear filters that the optimizer can collapse.
func LinearSuite() []App {
	return []App{
		{"FIR", "single 512-tap FIR filter", func() *ir.Program {
			return &ir.Program{Name: "FIR", Top: ir.Pipe("FIRPipe",
				Source("in"), FIR("fir512", 512, 0.13), Sink("out", 1))}
		}},
		{"RateConvert", "audio rate converter (up 2, FIR, down 3)", func() *ir.Program {
			return &ir.Program{Name: "RateConvert", Top: ir.Pipe("RateConvertPipe",
				Source("in"),
				Upsample("up2", 2),
				FIR("interp", 64, 0.21),
				Downsample("down3", 3),
				FIR("postFilter", 32, 0.4),
				Sink("out", 1))}
		}},
		{"TargetDetect", "matched filters with threshold detectors", func() *ir.Program {
			var branches []ir.Stream
			for i := 0; i < 4; i++ {
				branches = append(branches, ir.Pipe(mustName("match", i),
					FIR(mustName("matched", i), 64, 0.11+0.2*float64(i)),
					Gain(mustName("norm", i), 0.25),
				))
			}
			sj := ir.SJ("detectBank", ir.Duplicate(), ir.RoundRobin(), branches...)
			return &ir.Program{Name: "TargetDetect", Top: ir.Pipe("TargetDetectPipe",
				Source("radarIn"), sj, Sink("detections", 4))}
		}},
		{"FMRadioL", "FM radio (linear front end + equalizer)", func() *ir.Program {
			p := FMRadio(6, 64)
			p.Name = "FMRadioL"
			return p
		}},
		{"FilterBankL", "multirate filter bank", func() *ir.Program {
			p := FilterBank(8, 32)
			p.Name = "FilterBankL"
			return p
		}},
		{"Oversampler", "16x audio oversampler (cascaded interpolation)", func() *ir.Program {
			return &ir.Program{Name: "Oversampler", Top: ir.Pipe("OversamplerPipe",
				Source("in"),
				Upsample("os_up1", 2), FIR("os_fir1", 64, 0.18),
				Upsample("os_up2", 2), FIR("os_fir2", 64, 0.09),
				Upsample("os_up3", 2), FIR("os_fir3", 64, 0.045),
				Upsample("os_up4", 2), FIR("os_fir4", 64, 0.02),
				Sink("out", 16))}
		}},
		{"DToA", "1-bit D/A front end (oversampler + reconstruction)", func() *ir.Program {
			return &ir.Program{Name: "DToA", Top: ir.Pipe("DToAPipe",
				Source("pcm"),
				Upsample("da_up", 2), FIR("da_interp", 48, 0.15),
				FIR("da_shape", 16, 0.33),
				Downsample("da_dec", 2),
				Sink("analog", 1))}
		}},
	}
}
