//! Fixture: the callees the turbofish fixtures reach. Each seeded panic
//! and allocation is a finding only through a call written with `::<…>`.

pub struct Frames;

impl Frames {
    pub fn array<const N: usize>(&mut self) -> [u8; N] {
        self.take().expect("reached through `r.array::<4>()`")
    }

    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        None
    }

    pub fn body<const N: usize>(&mut self) -> usize {
        [0u8; N].to_vec().len()
    }
}

pub fn first<T>() -> usize {
    panic!("reached through `frames::first::<u8>()`")
}

pub fn pad<T>() -> usize {
    vec![0u8; 8].len()
}

impl Frames {
    pub fn over(_: &[u8]) -> Frames {
        Frames
    }
}
