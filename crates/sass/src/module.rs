//! The cubin-like container: kernels, parameters, and binary serialization.

use std::fmt;

use peakperf_arch::Generation;

use crate::ctl::{pack_stream, unpack_stream, CtlInfo, CtlWord, GROUP};
use crate::encode::{decode, encode};
use crate::text::Text;
use crate::{Instruction, SassError, PARAM_BASE};

/// Description of one kernel parameter (a 32-bit word in constant bank 0).
///
/// Pointers are passed as 32-bit offsets into the simulator's global memory
/// — the paper's kernels deliberately use 32-bit addressing to save address
/// registers (Section 5.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamDesc {
    /// Parameter name (informational).
    pub name: String,
    /// Byte offset in constant bank 0 (`PARAM_BASE + 4 * position`).
    pub offset: u32,
}

/// A single kernel: code plus launch metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel (entry) name.
    pub name: String,
    /// Number of general-purpose registers each thread uses.
    pub num_regs: u32,
    /// Static shared memory per block, in bytes.
    pub shared_bytes: u32,
    /// Per-thread local memory (spill space), in bytes.
    pub local_bytes: u32,
    /// Parameter layout.
    pub params: Vec<ParamDesc>,
    /// The instruction stream.
    pub code: Vec<Instruction>,
    /// Per-instruction Kepler control notation; `None` for Fermi kernels.
    /// When present, its length equals `code.len()`.
    pub ctl: Option<Vec<CtlInfo>>,
}

impl Kernel {
    /// Create an empty kernel with the given name.
    pub fn new(name: impl Into<String>) -> Kernel {
        Kernel {
            name: name.into(),
            num_regs: 0,
            shared_bytes: 0,
            local_bytes: 0,
            params: Vec::new(),
            code: Vec::new(),
            ctl: None,
        }
    }

    /// Append a parameter named `name`, returning its constant-bank offset.
    pub fn add_param(&mut self, name: impl Into<String>) -> u32 {
        let offset = PARAM_BASE + 4 * self.params.len() as u32;
        self.params.push(ParamDesc {
            name: name.into(),
            offset,
        });
        offset
    }

    /// The control info for instruction `i` ([`CtlInfo::NONE`] when the
    /// kernel carries no notation).
    pub fn ctl_for(&self, i: usize) -> CtlInfo {
        self.ctl
            .as_ref()
            .and_then(|v| v.get(i).copied())
            .unwrap_or(CtlInfo::NONE)
    }

    /// The registers the code needs: one past the highest index it reads
    /// or writes (`RZ` aside).
    pub fn regs_used(&self) -> u32 {
        self.code
            .iter()
            .flat_map(|i| i.op.reg_slots())
            .filter(|(_, r)| !r.is_rz())
            .map(|(role, r)| (u32::from(r.index()) + role.words()).min(63))
            .max()
            .unwrap_or(0)
    }

    /// Count instructions whose mnemonic starts with `prefix`
    /// (e.g. `"FFMA"`, `"LDS"`). Convenience for instruction-mix reports.
    pub fn count_mnemonic(&self, prefix: &str) -> usize {
        self.code
            .iter()
            .filter(|i| i.op.mnemonic().starts_with(prefix))
            .count()
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, ".kernel {}", self.name)?;
        writeln!(f, ".regs {}", self.num_regs)?;
        if self.shared_bytes > 0 {
            writeln!(f, ".shared {}", self.shared_bytes)?;
        }
        if self.local_bytes > 0 {
            writeln!(f, ".local {}", self.local_bytes)?;
        }
        for p in &self.params {
            writeln!(f, ".param {}", p.name)?;
        }
        let mut t = Text::new(f);
        for (i, inst) in self.code.iter().enumerate() {
            let ctl = self.ctl_for(i);
            if self.ctl.is_some() && ctl != CtlInfo::NONE {
                t.str(".ctl 0x")?;
                t.digits::<16>(ctl.to_byte().into(), 2)?;
                t.str("\n")?;
            }
            t.str("/*")?;
            t.digits::<16>(i as u64, 4)?;
            t.str("*/ ")?;
            inst.show(&mut t)?;
            t.str("\n")?;
        }
        t.flush()
    }
}

/// A module: one or more kernels targeting a GPU generation.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Target generation. Kepler modules carry control notation.
    pub generation: Generation,
    /// The kernels.
    pub kernels: Vec<Kernel>,
}

impl Module {
    /// An empty module for a generation.
    pub fn new(generation: Generation) -> Module {
        Module {
            generation,
            kernels: Vec::new(),
        }
    }

    /// Find a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&Kernel> {
        self.kernels.iter().find(|k| k.name == name)
    }

    /// Serialize to the binary container format.
    ///
    /// Layout (all integers little-endian):
    ///
    /// ```text
    /// magic  "PKPF"          4 bytes
    /// version u32            currently 1
    /// generation u8          0 = GT200, 1 = Fermi, 2 = Kepler
    /// kernel count u32
    /// per kernel:
    ///   name len u32, name bytes (UTF-8)
    ///   num_regs u32, shared_bytes u32, local_bytes u32
    ///   param count u32, then per param: name len u32 + bytes, offset u32
    ///   inst count u32, then inst count * 8 bytes of encoded instructions
    ///   ctl flag u8; if 1: ceil(n/7) control words of 8 bytes, interleaved
    ///     *before* each group of 7 instructions is how real Kepler lays
    ///     them out — here they are stored after the code section, which
    ///     keeps decoding single-pass while preserving the word format
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates encoding failures (e.g. out-of-range immediates).
    pub fn to_bytes(&self) -> Result<Vec<u8>, SassError> {
        // The header, about 64 bytes of metadata per kernel, and 8 bytes
        // per instruction and control word.
        let words: usize = (self.kernels.iter())
            .map(|k| k.code.len() + k.code.len().div_ceil(GROUP))
            .sum();
        let mut out = Vec::with_capacity(13 + 64 * self.kernels.len() + 8 * words);
        out.extend_from_slice(b"PKPF");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.push(match self.generation {
            Generation::Gt200 => 0,
            Generation::Fermi => 1,
            Generation::Kepler => 2,
        });
        out.extend_from_slice(&(self.kernels.len() as u32).to_le_bytes());
        for k in &self.kernels {
            write_str(&mut out, &k.name);
            out.extend_from_slice(&k.num_regs.to_le_bytes());
            out.extend_from_slice(&k.shared_bytes.to_le_bytes());
            out.extend_from_slice(&k.local_bytes.to_le_bytes());
            out.extend_from_slice(&(k.params.len() as u32).to_le_bytes());
            for p in &k.params {
                write_str(&mut out, &p.name);
                out.extend_from_slice(&p.offset.to_le_bytes());
            }
            out.extend_from_slice(&(k.code.len() as u32).to_le_bytes());
            for (i, inst) in k.code.iter().enumerate() {
                out.extend_from_slice(&encode(inst, i as u32)?.to_le_bytes());
            }
            match &k.ctl {
                Some(fields) => {
                    out.push(1);
                    for w in pack_stream(fields) {
                        out.extend_from_slice(&w.0.to_le_bytes());
                    }
                }
                None => out.push(0),
            }
        }
        Ok(out)
    }

    /// Deserialize from the binary container format.
    ///
    /// # Errors
    ///
    /// Returns [`SassError::Container`] or [`SassError::Decode`] on
    /// malformed input.
    pub fn from_bytes(bytes: &[u8]) -> Result<Module, SassError> {
        let mut r = Reader { bytes, pos: 0 };
        if r.take(4)? != b"PKPF" {
            return Err(SassError::Container {
                message: "bad magic".into(),
            });
        }
        let version = r.u32()?;
        if version != 1 {
            return Err(SassError::Container {
                message: format!("unsupported version {version}"),
            });
        }
        let generation = match r.u8()? {
            0 => Generation::Gt200,
            1 => Generation::Fermi,
            2 => Generation::Kepler,
            g => {
                return Err(SassError::Container {
                    message: format!("unknown generation tag {g}"),
                })
            }
        };
        // Counts come from the input: reserve no more than its bytes can hold.
        let nk = r.u32()? as usize;
        let mut kernels = Vec::with_capacity(nk.min(r.remaining()));
        for _ in 0..nk {
            let name = r.string()?;
            let num_regs = r.u32()?;
            let shared_bytes = r.u32()?;
            let local_bytes = r.u32()?;
            let np = r.u32()? as usize;
            let mut params = Vec::with_capacity(np.min(r.remaining()));
            for _ in 0..np {
                let pname = r.string()?;
                let offset = r.u32()?;
                params.push(ParamDesc {
                    name: pname,
                    offset,
                });
            }
            let ni = r.u32()? as usize;
            let words = r.words(ni)?;
            let mut code = Vec::with_capacity(ni);
            for (i, w) in words.enumerate() {
                code.push(decode(w, i as u32)?);
            }
            let ctl = if r.u8()? == 1 {
                let cws: Vec<CtlWord> = r.words(ni.div_ceil(GROUP))?.map(CtlWord).collect();
                Some(unpack_stream(&cws, ni)?)
            } else {
                None
            };
            kernels.push(Kernel {
                name,
                num_regs,
                shared_bytes,
                local_bytes,
                params,
                code,
                ctl,
            });
        }
        Ok(Module {
            generation,
            kernels,
        })
    }
}

impl fmt::Display for Module {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// target: {}", self.generation)?;
        for k in &self.kernels {
            writeln!(f, "{k}")?;
        }
        Ok(())
    }
}

fn write_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SassError> {
        if self.pos + n > self.bytes.len() {
            return Err(SassError::Container {
                message: format!("truncated at byte {}", self.pos),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SassError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SassError> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(b))
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` little-endian 64-bit words. Input too short for them
    /// is reported at the first word it cuts.
    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = u64> + 'a, SassError> {
        let whole = n.min(self.remaining() / 8);
        let bytes = self.take(8 * whole)?;
        if whole < n {
            self.take(8)?;
        }
        Ok(bytes.chunks_exact(8).map(|word| {
            let mut b = [0u8; 8];
            b.copy_from_slice(word);
            u64::from_le_bytes(b)
        }))
    }

    fn string(&mut self) -> Result<String, SassError> {
        let n = self.u32()? as usize;
        if n > 1 << 20 {
            return Err(SassError::Container {
                message: format!("string length {n} is implausible"),
            });
        }
        String::from_utf8(self.take(n)?.to_vec()).map_err(|_| SassError::Container {
            message: "invalid UTF-8 in string".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Op, Operand, Reg};

    fn sample_kernel() -> Kernel {
        let mut k = Kernel::new("test");
        k.num_regs = 8;
        k.shared_bytes = 1024;
        k.add_param("n");
        k.add_param("ptr");
        k.code = vec![
            Instruction::new(Op::Mov32i {
                dst: Reg::r(0),
                imm: 0x3f80_0000,
            }),
            Instruction::new(Op::Ffma {
                dst: Reg::r(1),
                a: Reg::r(0),
                b: Operand::reg(0),
                c: Reg::r(1),
            }),
            Instruction::new(Op::Exit),
        ];
        k
    }

    #[test]
    fn param_offsets_follow_abi() {
        let k = sample_kernel();
        assert_eq!(k.params[0].offset, PARAM_BASE);
        assert_eq!(k.params[1].offset, PARAM_BASE + 4);
    }

    #[test]
    fn binary_round_trip_fermi() {
        let mut m = Module::new(Generation::Fermi);
        m.kernels.push(sample_kernel());
        let bytes = m.to_bytes().unwrap();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn binary_round_trip_kepler_with_ctl() {
        let mut m = Module::new(Generation::Kepler);
        let mut k = sample_kernel();
        k.ctl = Some(vec![CtlInfo::stall(1), CtlInfo::stall(4), CtlInfo::NONE]);
        m.kernels.push(k);
        let bytes = m.to_bytes().unwrap();
        let back = Module::from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn malformed_container_is_rejected() {
        assert!(Module::from_bytes(b"NOPE").is_err());
        let mut m = Module::new(Generation::Fermi);
        m.kernels.push(sample_kernel());
        let mut bytes = m.to_bytes().unwrap();
        bytes.truncate(bytes.len() - 3);
        assert!(Module::from_bytes(&bytes).is_err());
    }

    #[test]
    fn counts_past_the_input_are_an_error_not_an_allocation() {
        // Each count claims 2^32 - 1 records of a few bytes: reserving
        // them up front aborted on a 480 GB allocation.
        let word = |v: u32| v.to_le_bytes().to_vec();
        let header = [b"PKPF".to_vec(), word(1), vec![1]].concat();
        let kernel = |params: u32| {
            [
                word(1),
                b"k".to_vec(),
                word(8),
                word(0),
                word(0),
                word(params),
            ]
        };
        let cases = [
            [header.clone(), word(u32::MAX)].concat(),
            [header.clone(), word(1), kernel(u32::MAX).concat()].concat(),
            [header, word(1), kernel(0).concat(), word(u32::MAX)].concat(),
        ];
        for bytes in cases {
            assert!(matches!(
                Module::from_bytes(&bytes),
                Err(SassError::Container { .. })
            ));
        }
    }

    #[test]
    fn kernel_lookup_and_counts() {
        let mut m = Module::new(Generation::Fermi);
        m.kernels.push(sample_kernel());
        assert!(m.kernel("test").is_some());
        assert!(m.kernel("missing").is_none());
        assert_eq!(m.kernel("test").unwrap().count_mnemonic("FFMA"), 1);
    }

    #[test]
    fn display_contains_directives() {
        let k = sample_kernel();
        let text = k.to_string();
        assert!(text.contains(".kernel test"));
        assert!(text.contains(".regs 8"));
        assert!(text.contains(".shared 1024"));
        assert!(text.contains("FFMA R1, R0, R0, R1;"));
    }
}
