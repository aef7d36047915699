(* Two-sided 95% critical values of the Student-t distribution. *)
let t_table =
  [| 12.706; 4.303; 3.182; 2.776; 2.571; 2.447; 2.365; 2.306; 2.262; 2.228;
     2.201; 2.179; 2.160; 2.145; 2.131; 2.120; 2.110; 2.101; 2.093; 2.086;
     2.080; 2.074; 2.069; 2.064; 2.060; 2.056; 2.052; 2.048; 2.045; 2.042 |]

let t_quantile ~df =
  if df < 1 then invalid_arg "Confidence.t_quantile: df >= 1";
  if df <= Array.length t_table then t_table.(df - 1)
  else if df <= 40 then 2.042 -. (0.021 *. float_of_int (df - 30) /. 10.)
  else if df <= 60 then 2.021 -. (0.021 *. float_of_int (df - 40) /. 20.)
  else if df <= 120 then 2.000 -. (0.020 *. float_of_int (df - 60) /. 60.)
  else 1.96

let interval m =
  let n = Moments.count m in
  if n < 2 then None
  else
    let half =
      t_quantile ~df:(n - 1) *. Moments.stddev m /. sqrt (float_of_int n)
    in
    Some (Moments.mean m, half)
