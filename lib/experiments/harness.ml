let p ?(seed = 42) nodes tasks =
  { (Params.default ~nodes ~tasks) with Params.seed }

let aggregate ?trials params strategy =
  Runner.run_trials ?trials ~domains:(Scale.domains ()) params
    (Strategy.make strategy)

let row ~label (a : Runner.aggregate) =
  Printf.sprintf "  %-42s factor=%6.3f +/-%5.3f  [%6.3f, %6.3f]%s\n" label
    a.Runner.mean_factor a.Runner.stddev_factor a.Runner.min_factor
    a.Runner.max_factor
    (if a.Runner.aborted > 0 then Printf.sprintf "  (%d aborted!)" a.Runner.aborted
     else "")

let header title = Printf.sprintf "%s\n%s\n" title (String.make (String.length title) '-')
