package doclint

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fusingArchs are the GOARCH values whose compilers fuse x*y ± z into
// one instruction that rounds once; amd64's never does.
var fusingArchs = []string{"arm64", "riscv64", "loong64", "ppc64le", "s390x"}

// fusedInstr matches one -S instruction line whose opcode is a fused
// multiply-add or -subtract (FMADDD, FMSUBD, FNMSUBD on arm64, riscv64
// and loong64; FMADD, FMSUB on ppc64le and s390x), capturing its
// source position and opcode.
var fusedInstr = regexp.MustCompile(`^\s+0x[0-9a-f]+ \d+ \((\S+\.go:\d+)\)\s+(FN?M(?:ADD|SUB)[A-Z]*)\s`)

// TestNoFusedMultiplyAdd keeps the module on one rounding rule. The Go
// spec lets a compiler fuse x*y + z into one instruction with one
// rounding, and every architecture in fusingArchs does. A fused site
// computes a different last bit there than on amd64, and every graph
// fingerprint, cell and memo key, matrix digest and store file
// downstream of it means something else on that machine. The test
// cross-compiles the module with -S and fails on any fused instruction
// at a module source position. Only the compiler's output settles this:
// fusion crosses statements, and the compiler rewrites x/2 into x*0.5
// and fuses that. Round a product with a conversion, float64(x*y) + z;
// write math.FMA where one rounding is meant. -short checks arm64 only.
func TestNoFusedMultiplyAdd(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	archs := fusingArchs
	if testing.Short() {
		archs = archs[:1]
	}
	for _, arch := range archs {
		t.Run(arch, func(t *testing.T) {
			sites, err := fusedSites(goBin, root, arch)
			if err != nil {
				t.Fatal(err)
			}
			if len(sites) > 0 {
				t.Errorf("%d fused multiply-add instructions on %s; round each product with float64(...), or write math.FMA:\n%s",
					len(sites), arch, strings.Join(sites, "\n"))
			}
		})
	}
}

// fusedSites compiles the module for arch with -S and returns one
// "file:line: OPCODE" per fused instruction at a module source position.
// go list -export compiles every package as go build does but links no
// binary, which is most of a warm build's time.
func fusedSites(goBin, root, arch string) ([]string, error) {
	cmd := exec.Command(goBin, "list", "-export", "-gcflags=lowlat/...=-S", "./...")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOARCH="+arch, "CGO_ENABLED=0")
	asm, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var sites, errLines []string
	sc := bufio.NewScanner(asm)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		m := fusedInstr.FindStringSubmatch(line)
		if m == nil {
			if !strings.HasPrefix(line, "\t") && !strings.HasPrefix(line, "# ") && !strings.Contains(line, " size=") {
				errLines = append(errLines, line)
			}
			continue
		}
		// Module files print absolute, or under the module path with
		// -trimpath; anything else is the toolchain's own source.
		if rel, ok := strings.CutPrefix(m[1], root+string(filepath.Separator)); ok {
			sites = append(sites, rel+": "+m[2])
		} else if rel, ok := strings.CutPrefix(m[1], "lowlat/"); ok {
			sites = append(sites, rel+": "+m[2])
		}
	}
	if err := sc.Err(); err != nil {
		_ = cmd.Process.Kill() // the error reported is the scan's
		_ = cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("GOARCH=%s go list -export: %v\n%s", arch, err, strings.Join(errLines, "\n"))
	}
	return sites, nil
}
