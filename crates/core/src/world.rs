//! World inputs: everything a test case can control about a run.

use bomblab_solver::Model;
use bomblab_vm::MachineConfig;

/// A complete assignment of the program's controllable environment — the
/// "test case" a concolic executor generates.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WorldInput {
    /// Bytes of `argv[1]` (may contain embedded NULs, which effectively
    /// shorten the C string the program sees).
    pub argv1: Vec<u8>,
    /// Value returned by `time`.
    pub epoch: u64,
    /// Value returned by `getuid`.
    pub uid: u64,
    /// Response served by `net_get`.
    pub net: Vec<u8>,
    /// Bytes available on stdin.
    pub stdin: Vec<u8>,
    /// Initial files.
    pub files: Vec<(String, Vec<u8>)>,
}

impl Default for WorldInput {
    fn default() -> WorldInput {
        WorldInput {
            argv1: b"AAAAAAAA".to_vec(),
            epoch: 1_500_000_000,
            uid: 1000,
            net: b"HELLO FROM BVM-NET\n".to_vec(),
            stdin: Vec::new(),
            files: Vec::new(),
        }
    }
}

impl WorldInput {
    /// A default world with the given `argv[1]` seed.
    pub fn with_arg(arg: impl Into<Vec<u8>>) -> WorldInput {
        WorldInput {
            argv1: arg.into(),
            ..WorldInput::default()
        }
    }

    /// Converts to a machine configuration.
    pub fn to_config(&self, trace: bool, step_budget: u64) -> MachineConfig {
        MachineConfig {
            argv: vec![b"bomb".to_vec(), self.argv1.clone()],
            stdin: self.stdin.clone(),
            files: self.files.clone(),
            epoch: self.epoch,
            uid: self.uid,
            net_response: self.net.clone(),
            step_budget,
            quantum: 64,
            trace,
            bbcache: true,
        }
    }

    /// Applies a solver model: variables named `arg1_b{i}` replace argv
    /// bytes, `time` replaces the epoch, `net_b{i}` / `stdin_b{i}` replace
    /// environment bytes. Unknown variables (e.g. `sysret_*`) are ignored —
    /// the world cannot honour them, which is exactly how partial (`P`)
    /// outcomes arise.
    pub fn apply_model(&self, model: &Model) -> WorldInput {
        let mut out = self.clone();
        for (name, value) in model.iter() {
            if let Some(rest) = name.strip_prefix("arg1_b") {
                if let Ok(i) = rest.parse::<usize>() {
                    if i < out.argv1.len() {
                        out.argv1[i] = *value as u8;
                    }
                }
            } else if name.as_ref() == "time" {
                out.epoch = *value;
            } else if let Some(rest) = name.strip_prefix("net_b") {
                if let Ok(i) = rest.parse::<usize>() {
                    if i < out.net.len() {
                        out.net[i] = *value as u8;
                    }
                }
            } else if let Some(rest) = name.strip_prefix("stdin_b") {
                if let Ok(i) = rest.parse::<usize>() {
                    if i < out.stdin.len() {
                        out.stdin[i] = *value as u8;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bomblab_solver::Model;

    #[test]
    fn apply_model_maps_variable_namespaces() {
        let mut model = Model::default();
        model.insert("arg1_b0", b'X' as u64);
        model.insert("arg1_b2", b'Z' as u64);
        model.insert("time", 42);
        model.insert("sysret_9", 1234); // must be ignored
        let base = WorldInput::with_arg("AAA");
        let out = base.apply_model(&model);
        assert_eq!(out.argv1, b"XAZ");
        assert_eq!(out.epoch, 42);
        assert_eq!(out.uid, base.uid);
    }

    #[test]
    fn apply_model_ignores_out_of_range_bytes() {
        let mut model = Model::default();
        model.insert("arg1_b99", b'!' as u64);
        let base = WorldInput::with_arg("AB");
        assert_eq!(base.apply_model(&model).argv1, b"AB");
    }

    #[test]
    fn apply_model_rewrites_net_and_stdin() {
        let mut model = Model::default();
        model.insert("net_b0", b'C' as u64);
        model.insert("stdin_b1", b'D' as u64);
        let base = WorldInput {
            net: b"xy".to_vec(),
            stdin: b"ab".to_vec(),
            ..WorldInput::default()
        };
        let out = base.apply_model(&model);
        assert_eq!(out.net, b"Cy");
        assert_eq!(out.stdin, b"aD");
    }

    #[test]
    fn to_config_threads_every_field() {
        let input = WorldInput {
            argv1: b"zz".to_vec(),
            epoch: 7,
            uid: 8,
            net: b"n".to_vec(),
            stdin: b"s".to_vec(),
            files: vec![("f".into(), b"c".to_vec())],
        };
        let config = input.to_config(true, 1234);
        assert_eq!(config.argv[1], b"zz");
        assert_eq!(config.epoch, 7);
        assert_eq!(config.uid, 8);
        assert_eq!(config.net_response, b"n");
        assert_eq!(config.stdin, b"s");
        assert_eq!(config.files.len(), 1);
        assert!(config.trace);
        assert_eq!(config.step_budget, 1234);
        assert!(config.bbcache, "cached dispatch is the default");
    }
}
