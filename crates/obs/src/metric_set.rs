/// Which primitive a declared metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotone [`crate::Counter`].
    Counter,
    /// A signed [`crate::Gauge`].
    Gauge,
    /// A log-scale [`crate::Histogram`].
    Histogram,
}

/// One row of a [`metric_set!`](crate::metric_set) table, as written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDecl {
    /// Counter, gauge or histogram.
    pub kind: MetricKind,
    /// Exposition name the metric is registered under.
    pub name: &'static str,
    /// One-line `# HELP` text.
    pub help: &'static str,
}

/// Declares a set of metrics once, as a table, and generates every form of
/// it; the crate docs ("Declaring a metric set") give the grammar, what is
/// generated and an example.
#[macro_export]
macro_rules! metric_set {
    (
        $(#[$handle_meta:meta])*
        $vis:vis struct $Handle:ident;
        $(#[$stats_meta:meta])*
        $stats_vis:vis struct $Stats:ident {
            $($(#[$lead_meta:meta])* $lead:ident : $LeadTy:ty,)*
        }
        counters { $($(#[$c_meta:meta])* $c:ident : $c_name:literal, $c_help:literal;)* }
        gauges { $($(#[$g_meta:meta])* $g:ident : $g_name:literal, $g_help:literal;)* }
        histograms { $($(#[$h_meta:meta])* $h:ident : $h_name:literal, $h_help:literal;)* }
    ) => {
        $(#[$handle_meta])*
        $vis struct $Handle {
            $($(#[$c_meta])* $vis $c: ::std::sync::Arc<$crate::Counter>,)*
            $($(#[$g_meta])* $vis $g: ::std::sync::Arc<$crate::Gauge>,)*
            $($(#[$h_meta])* $vis $h: ::std::sync::Arc<$crate::Histogram>,)*
        }

        impl $Handle {
            /// Zeroed metrics, registered with the process-wide registry
            /// when the `obs` feature is compiled in.
            $vis fn new() -> Self {
                let metrics = Self {
                    $($c: ::std::default::Default::default(),)*
                    $($g: ::std::default::Default::default(),)*
                    $($h: ::std::default::Default::default(),)*
                };
                if $crate::ENABLED {
                    let registry = $crate::Registry::global();
                    $(registry.register_arc_counter($c_name, $c_help, &metrics.$c);)*
                    $(registry.register_arc_gauge($g_name, $g_help, &metrics.$g);)*
                    $(registry.register_arc_histogram($h_name, $h_help, &metrics.$h);)*
                }
                metrics
            }

            /// Independent relaxed loads of every counter and gauge: each
            /// field exact and monotone, no consistency across fields.
            $vis fn snapshot(&self $(, $lead: $LeadTy)*) -> $Stats {
                $Stats {
                    $($lead,)*
                    $($c: self.$c.get(),)*
                    $($g: self.$g.get(),)*
                }
            }
        }

        impl ::std::default::Default for $Handle {
            fn default() -> Self {
                Self::new()
            }
        }

        $(#[$stats_meta])*
        $stats_vis struct $Stats {
            $($(#[$lead_meta])* pub $lead: $LeadTy,)*
            $($(#[$c_meta])* pub $c: u64,)*
            $($(#[$g_meta])* pub $g: i64,)*
        }

        impl $Stats {
            /// Every metric of the set as declared, in table order.
            pub const METRICS: &'static [$crate::MetricDecl] = &[
                $($crate::metric_set!(@decl Counter $c_name $c_help),)*
                $($crate::metric_set!(@decl Gauge $g_name $g_help),)*
                $($crate::metric_set!(@decl Histogram $h_name $h_help),)*
            ];

            /// `(field name, value)` of every counter and gauge field, in
            /// declaration order; `i128` holds both `u64` and `i64` exactly.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, i128)> {
                [
                    $((stringify!($c), i128::from(self.$c)),)*
                    $((stringify!($g), i128::from(self.$g)),)*
                ]
                .into_iter()
            }
        }

        $crate::metric_set!(@add_assign $Stats [$($lead)*] $($c)* $($g)*);
    };
    (@decl $kind:ident $name:literal $help:literal) => {
        $crate::MetricDecl { kind: $crate::MetricKind::$kind, name: $name, help: $help }
    };
    (@add_assign $Stats:ident [] $($field:ident)*) => {
        impl ::std::ops::AddAssign<&$Stats> for $Stats {
            fn add_assign(&mut self, other: &$Stats) {
                $(self.$field += other.$field;)*
            }
        }
    };
    // Leading fields have no general sum, so such a set gets no `+=`.
    (@add_assign $Stats:ident [$($lead:ident)+] $($field:ident)*) => {};
}
