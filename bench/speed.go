package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The machine the bounds were set on is two cores of a shared host, and
// what a wall-clock second or a CPU second buys on it drifts with what
// the host's other tenants do. Two things move, and the benchmark
// measures both on a thread of its own, every probeEvery:
//
//   - how long the processor takes over a fixed instruction stream
//     (probeOnce, in CPU time of the probing thread): 5 to 10% over
//     minutes in a calm hour, more in a busy one;
//   - how much of the time the guest wanted a processor the host gave it
//     to someone else (the steal column of /proc/stat): nothing in a calm
//     hour, over half in a busy one, when ten runs of one commit were
//     seen to differ six times over.
//
// No statistic taken inside a 25 s window removes a drift slower than
// the window, so the benchmark divides the drift out. The speed of an
// interval has two factors, 1 on the quiet machine and more when it is
// slower: cpu, the median probe time in it ÷ probeNominal, and wall, cpu
// times (1 + stolen ÷ run ticks), the stretch of anything that ran. A
// timing at reference speed is the measured one ÷ the factor of the
// interval it covers: CPU times by cpu, elapsed times by wall, rates
// multiplied. The measured window is cut into slices, each with its own
// factors, and the metrics come from the two thirds of them with the
// lowest wall factor (load.clean): what the host takes away in bursts is
// left out, what it takes away throughout is divided out.
//
// The probe is the benchmark's own code and runs none of the
// repository's, so no change to the repository can move it. It costs
// about 2% of one core.
const (
	probeEvery = 50 * time.Millisecond
	// probeSteps dependent xorshift rounds take probeNominal on the
	// machine the bounds were set on when its neighbours are quiet.
	probeSteps   = 500_000
	probeNominal = 975 * time.Microsecond
	// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID, which package syscall
	// does not name.
	clockThreadCPU = 3
)

// speed is how much slower than the reference the machine ran over an
// interval: cpu for a CPU time, wall for an elapsed time.
type speed struct{ cpu, wall float64 }

// speedProbe is the record of one process's probes.
type speedProbe struct {
	start time.Time
	mu    sync.Mutex
	at    []time.Duration // when each probe ended, from start
	took  []time.Duration // the CPU time it took
	// stolen and ran are the machine's cumulative clock ticks at each
	// probe: taken by the host, and spent running anything.
	stolen, ran []float64
	stop, done  chan struct{}
}

var probeSink uint64 // keeps the probe's work from being optimised away

// threadCPU returns the CPU time of the calling thread. getrusage would
// not do: it reads a total the kernel brings up to date only at its
// clock ticks, every few milliseconds, and the probe takes one.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// probeOnce runs the fixed work on the calling thread and returns the
// CPU time the thread spent on it. CPU time, not elapsed time: with both
// processors busy the thread also waits its turn, which is the load's
// doing, not the machine's.
func probeOnce() time.Duration {
	before := threadCPU()
	x := uint64(88172645463325252)
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink += x
	return threadCPU() - before
}

// startSpeedProbe starts probing on a thread of its own until close.
func startSpeedProbe() *speedProbe {
	p := &speedProbe{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		// Thread CPU time means nothing to a goroutine that changes threads.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			took := probeOnce()
			stolen, ran := machineTicks()
			p.mu.Lock()
			p.at, p.took = append(p.at, time.Since(p.start)), append(p.took, took)
			p.stolen, p.ran = append(p.stolen, stolen), append(p.ran, ran)
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *speedProbe) close() {
	close(p.stop)
	<-p.done
}

// machineTicks reads the first line of /proc/stat: the clock ticks, over
// all processors since boot, that the host took from the guest, and that
// the guest spent running (user, nice, system, irq, softirq). Both are 0
// where the file cannot be read.
func machineTicks() (stolen, ran float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] {
		v, _ := strconv.ParseFloat(f, 64)
		switch i {
		case 0, 1, 2, 5, 6:
			ran += v
		case 7:
			stolen = v
		}
	}
	return stolen, ran
}

// factor returns the speed of the machine between from and to. An
// interval too short to hold a probe takes the nearest.
func (p *speedProbe) factor(from, to time.Time) speed {
	lo, hi := from.Sub(p.start), to.Sub(p.start)
	p.mu.Lock()
	defer p.mu.Unlock()
	i := sort.Search(len(p.at), func(i int) bool { return p.at[i] >= lo })
	j := sort.Search(len(p.at), func(i int) bool { return p.at[i] > hi })
	if i == j {
		// Nearest probe: the one before the interval or the one after it.
		switch {
		case len(p.at) == 0:
			return speed{1, 1}
		case i == len(p.at) || (i > 0 && lo-p.at[i-1] < p.at[i]-hi):
			i--
		}
		j = i + 1
	}
	took := make([]float64, 0, j-i)
	for _, t := range p.took[i:j] {
		took = append(took, float64(t))
	}
	sp := speed{cpu: median(took) / float64(probeNominal)}
	if sp.cpu <= 0 {
		sp.cpu = 1 // the thread's CPU time could not be read
	}
	// Ticks between the probe before the interval and the last one in it.
	sp.wall = sp.cpu
	if ran := p.ran[j-1] - p.ran[max(0, i-1)]; ran > 0 {
		sp.wall *= 1 + (p.stolen[j-1]-p.stolen[max(0, i-1)])/ran
	}
	return sp
}
