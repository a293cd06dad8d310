//! Tensor shapes and convolution output-size arithmetic.
//!
//! The paper computes the number of sliding windows of a convolutional
//! layer as `c = (l − k + b)/s + 1` where `l` is one side of the input,
//! `k` the kernel side, `b` the border (total padding) and `s` the stride,
//! with `/` integer division. [`conv_out`] implements exactly that formula;
//! [`Padding`] maps the usual `valid`/`same` conventions onto `b`.

/// Shape of the data flowing between layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A flat feature vector of the given length.
    Flat(usize),
    /// An image tensor: height × width × channels.
    Image {
        /// Height in pixels.
        h: usize,
        /// Width in pixels.
        w: usize,
        /// Number of channels (the paper's input "depth" `d`).
        c: usize,
    },
}

impl Shape {
    /// Convenience constructor for image shapes.
    pub const fn image(h: usize, w: usize, c: usize) -> Self {
        Shape::Image { h, w, c }
    }

    /// Total number of elements.
    pub fn elements(&self) -> usize {
        match *self {
            Shape::Flat(n) => n,
            Shape::Image { h, w, c } => h * w * c,
        }
    }

    /// Flattened view of this shape.
    pub fn flattened(&self) -> Shape {
        Shape::Flat(self.elements())
    }

    /// The channel count for image shapes (`None` for flat ones).
    pub fn channels(&self) -> Option<usize> {
        match *self {
            Shape::Image { c, .. } => Some(c),
            Shape::Flat(_) => None,
        }
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Shape::Flat(n) => write!(f, "{n}"),
            Shape::Image { h, w, c } => write!(f, "{h}x{w}x{c}"),
        }
    }
}

/// Spatial padding convention of a convolution or pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding: the window stays inside the input (`b = 0`).
    Valid,
    /// "Same" padding: `b = k − 1`, so a stride-1 window preserves the
    /// input size.
    Same,
}

impl Padding {
    /// Total border `b` added around an input for a window of side `k`.
    pub fn border(&self, k: usize) -> usize {
        match self {
            Padding::Valid => 0,
            Padding::Same => k - 1,
        }
    }
}

/// Output side length of a sliding window: the paper's
/// `c = (l − k + b)/s + 1` (integer division).
///
/// # Panics
/// Panics when the (padded) window does not fit the input or the stride is
/// zero — a mis-specified architecture should fail loudly.
pub fn conv_out(l: usize, k: usize, padding: Padding, s: usize) -> usize {
    assert!(s > 0, "stride must be positive");
    let b = padding.border(k);
    assert!(
        l + b >= k,
        "window k={k} with border {b} does not fit input side {l}"
    );
    (l - k + b) / s + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_stride1_shrinks_by_k_minus_1() {
        assert_eq!(conv_out(147, 3, Padding::Valid, 1), 145);
    }

    #[test]
    fn same_stride1_preserves_size() {
        for l in [7usize, 35, 147, 299] {
            for k in [1usize, 3, 5, 7] {
                assert_eq!(conv_out(l, k, Padding::Same, 1), l, "l={l}, k={k}");
            }
        }
    }

    #[test]
    fn inception_stem_sizes() {
        // The Inception v3 stem: 299 →(3x3/2 v) 149 →(3x3/1 v) 147.
        assert_eq!(conv_out(299, 3, Padding::Valid, 2), 149);
        assert_eq!(conv_out(149, 3, Padding::Valid, 1), 147);
        // maxpool 3x3/2 valid: 147 → 73.
        assert_eq!(conv_out(147, 3, Padding::Valid, 2), 73);
        // conv 3x3/1 v: 73 → 71; pool 3x3/2: 71 → 35.
        assert_eq!(conv_out(73, 3, Padding::Valid, 1), 71);
        assert_eq!(conv_out(71, 3, Padding::Valid, 2), 35);
    }

    #[test]
    fn same_stride2_halves_rounding_up() {
        assert_eq!(conv_out(35, 3, Padding::Same, 2), 18);
        assert_eq!(conv_out(36, 3, Padding::Same, 2), 18);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_window_panics() {
        let _ = conv_out(2, 5, Padding::Valid, 1);
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        let _ = conv_out(10, 3, Padding::Valid, 0);
    }

    #[test]
    fn shape_elements() {
        assert_eq!(Shape::Flat(784).elements(), 784);
        assert_eq!(Shape::image(299, 299, 3).elements(), 299 * 299 * 3);
    }

    #[test]
    fn flatten_roundtrip() {
        let s = Shape::image(8, 8, 2048);
        assert_eq!(s.flattened(), Shape::Flat(8 * 8 * 2048));
        assert_eq!(s.channels(), Some(2048));
        assert_eq!(s.flattened().channels(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Shape::Flat(10).to_string(), "10");
        assert_eq!(Shape::image(35, 35, 288).to_string(), "35x35x288");
    }
}
