let () = assert (Fx.Kit.test_only (Fx.Kit.used 0) = 2)
